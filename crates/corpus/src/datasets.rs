//! Simulated external data sources for replay repair (§3.2).
//!
//! When a notebook's `read_csv` path cannot be resolved from the cloned
//! repository, the paper's replay system (2) scrapes URLs from adjacent
//! markdown and (3) falls back to the Kaggle dataset API. This module is the
//! offline stand-in for both: a registry of downloadable URLs and a
//! Kaggle-style dataset repository keyed by dataset slug.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An offline repository of datasets and URL-addressable files.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DatasetRepository {
    /// Kaggle-style datasets: slug → (file name → CSV text).
    datasets: HashMap<String, HashMap<String, String>>,
    /// Directly downloadable URLs: url → CSV text.
    urls: HashMap<String, String>,
}

impl DatasetRepository {
    pub fn new() -> Self {
        Self::default()
    }

    /// Host a file under a Kaggle-style dataset slug.
    pub fn add_dataset_file(
        &mut self,
        slug: impl Into<String>,
        file: impl Into<String>,
        content: impl Into<String>,
    ) {
        self.datasets
            .entry(slug.into())
            .or_default()
            .insert(file.into(), content.into());
    }

    /// Host a file at a URL.
    pub fn add_url(&mut self, url: impl Into<String>, content: impl Into<String>) {
        self.urls.insert(url.into(), content.into());
    }

    /// `kaggle datasets download -d <slug>` equivalent: all files of the
    /// dataset, or `None` if the slug is unknown.
    pub fn download_dataset(&self, slug: &str) -> Option<&HashMap<String, String>> {
        self.datasets.get(slug)
    }

    /// Search every hosted dataset for a file with the given basename —
    /// the replay engine's last-resort lookup when only a file name is
    /// known.
    pub fn find_file_by_name(&self, basename: &str) -> Option<&str> {
        // Deterministic order: scan slugs sorted so replay is reproducible.
        let mut slugs: Vec<&String> = self.datasets.keys().collect();
        slugs.sort();
        for slug in slugs {
            let files = &self.datasets[slug];
            let mut names: Vec<&String> = files.keys().collect();
            names.sort();
            for name in names {
                if name == basename {
                    return Some(files[name].as_str());
                }
            }
        }
        None
    }

    /// Fetch a URL (the simulated "download using URLs extracted from
    /// comments/text cells").
    pub fn fetch_url(&self, url: &str) -> Option<&str> {
        self.urls.get(url).map(String::as_str)
    }

    /// Absorb another repository (union of datasets and URLs). Used to
    /// combine the per-notebook deltas produced by parallel corpus
    /// generation; planted slugs/URLs are unique per notebook, so the merge
    /// order does not matter.
    pub fn merge(&mut self, other: DatasetRepository) {
        for (slug, files) in other.datasets {
            self.datasets.entry(slug).or_default().extend(files);
        }
        self.urls.extend(other.urls);
    }
}

/// Extract `http(s)://…` URLs from markdown text (replay repair source 2).
pub fn extract_urls(markdown: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for token in markdown.split_whitespace() {
        let t = token.trim_matches(|c: char| "()<>[],'\"".contains(c));
        if t.starts_with("http://") || t.starts_with("https://") {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_roundtrip() {
        let mut repo = DatasetRepository::new();
        repo.add_dataset_file("user/titanic", "titanic.csv", "a,b\n1,2\n");
        let files = repo.download_dataset("user/titanic").unwrap();
        assert!(files.contains_key("titanic.csv"));
        assert!(repo.download_dataset("nope").is_none());
    }

    #[test]
    fn find_by_basename_scans_all_datasets() {
        let mut repo = DatasetRepository::new();
        repo.add_dataset_file("a/one", "x.csv", "x\n1\n");
        repo.add_dataset_file("b/two", "y.csv", "y\n2\n");
        assert_eq!(repo.find_file_by_name("y.csv"), Some("y\n2\n"));
        assert!(repo.find_file_by_name("z.csv").is_none());
    }

    #[test]
    fn url_fetch() {
        let mut repo = DatasetRepository::new();
        repo.add_url("https://data.example.com/f.csv", "v\n9\n");
        assert_eq!(repo.fetch_url("https://data.example.com/f.csv"), Some("v\n9\n"));
        assert!(repo.fetch_url("https://other").is_none());
    }

    #[test]
    fn url_extraction_from_markdown() {
        let md = "Data from (https://data.example.com/f.csv) and see http://a.b/c.";
        let urls = extract_urls(md);
        assert_eq!(
            urls,
            vec!["https://data.example.com/f.csv", "http://a.b/c."]
        );
        assert!(extract_urls("no links here").is_empty());
    }
}

//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The real crates.io `serde` is unreachable in the build environment, so
//! this shim provides the two derive-able traits with a **JSON-direct**
//! data model: [`Serialize`] renders straight into a JSON string (consumed
//! by the sibling `serde_json` shim's `to_string`), and [`Deserialize`] is
//! a marker — nothing in the workspace deserialises into typed values; all
//! parsing goes through `serde_json::Value`.
//!
//! Determinism contract: every implementation here (including the map
//! implementations, which sort hash-map entries by key) produces identical
//! output for identical values, so serialised forms are safe to use as
//! dedup keys — `corpus::filter` relies on this.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

// Lets the derive's `::serde::` paths resolve inside this crate's tests.
#[cfg(test)]
extern crate self as serde;

/// Serialise `self` as JSON onto `out`.
pub trait Serialize {
    fn serialize_json(&self, out: &mut String);
}

/// Marker trait: typed deserialisation is not used in this workspace.
pub trait Deserialize: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Escape and quote a string as a JSON string literal.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialise a value to a standalone JSON string (convenience used by the
/// `serde_json` shim and tests).
pub fn to_json_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.serialize_json(&mut out);
    out
}

// ---------------------------------------------------------------------------
// Primitive implementations
// ---------------------------------------------------------------------------

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(itoa_buf(*self as i128).as_str());
            }
        }
        impl Deserialize for $t {}
    )*};
}
impl_serialize_int!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}
impl Deserialize for u64 {}

impl Serialize for u128 {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}
impl Deserialize for u128 {}

fn itoa_buf(v: i128) -> String {
    v.to_string()
}

fn write_float(v: f64, out: &mut String) {
    if v.is_finite() {
        // Keep a float marker so integral floats stay distinguishable from
        // integers ("1.0", not "1") — serde_json does the same.
        let s = format!("{v}");
        let has_marker = s.contains('.') || s.contains('e') || s.contains('E');
        out.push_str(&s);
        if !has_marker {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; serde_json emits null.
        out.push_str("null");
    }
}

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        write_float(*self, out);
    }
}
impl Deserialize for f64 {}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        write_float(*self as f64, out);
    }
}
impl Deserialize for f32 {}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}
impl Deserialize for bool {}

impl Serialize for char {
    fn serialize_json(&self, out: &mut String) {
        let mut buf = [0u8; 4];
        write_json_string(self.encode_utf8(&mut buf), out);
    }
}
impl Deserialize for char {}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}
impl Deserialize for String {}

impl Serialize for () {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("null");
    }
}
impl Deserialize for () {}

// ---------------------------------------------------------------------------
// Composite implementations
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}
impl<T: Deserialize> Deserialize for Arc<T> {}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.serialize_json(out),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    let _ = first;
                    self.$idx.serialize_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {}
    )*};
}
impl_serialize_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Render a serialised key as a JSON object key (JSON keys must be
/// strings; non-string keys are re-quoted from their JSON rendering).
fn write_map_key(key_json: &str, out: &mut String) {
    if key_json.starts_with('"') {
        out.push_str(key_json);
    } else {
        write_json_string(key_json, out);
    }
}

fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    sort: bool,
    out: &mut String,
) {
    let mut rendered: Vec<(String, &'a V)> =
        entries.map(|(k, v)| (to_json_string(k), v)).collect();
    if sort {
        // Hash maps iterate in arbitrary order; sort for determinism.
        rendered.sort_by(|a, b| a.0.cmp(&b.0));
    }
    out.push('{');
    for (i, (k, v)) in rendered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_map_key(k, out);
        out.push(':');
        v.serialize_json(out);
    }
    out.push('}');
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize_json(&self, out: &mut String) {
        write_map(self.iter(), true, out);
    }
}
impl<K: Deserialize, V: Deserialize, S> Deserialize for HashMap<K, V, S> {}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        write_map(self.iter(), false, out);
    }
}
impl<K: Deserialize, V: Deserialize> Deserialize for BTreeMap<K, V> {}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize_json(&self, out: &mut String) {
        let mut rendered: Vec<String> = self.iter().map(|v| to_json_string(v)).collect();
        rendered.sort();
        out.push('[');
        for (i, v) in rendered.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(v);
        }
        out.push(']');
    }
}
impl<T: Deserialize, S> Deserialize for HashSet<T, S> {}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}
impl<T: Deserialize> Deserialize for BTreeSet<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_derive::Serialize;

    #[test]
    fn primitives_render_as_json() {
        assert_eq!(to_json_string(&42i64), "42");
        assert_eq!(to_json_string(&true), "true");
        assert_eq!(to_json_string(&1.5f64), "1.5");
        assert_eq!(to_json_string(&1.0f64), "1.0");
        assert_eq!(to_json_string(&f64::NAN), "null");
        assert_eq!(to_json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }

    #[test]
    fn composites_render_as_json() {
        assert_eq!(to_json_string(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_json_string(&Some("x".to_string())), "\"x\"");
        assert_eq!(to_json_string(&None::<String>), "null");
        assert_eq!(
            to_json_string(&("a".to_string(), "b".to_string())),
            "[\"a\",\"b\"]"
        );
    }

    #[test]
    fn hash_maps_serialize_deterministically() {
        let mut m = HashMap::new();
        for i in 0..20 {
            m.insert(format!("k{i:02}"), i);
        }
        let a = to_json_string(&m);
        let b = to_json_string(&m.clone());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"k00\":0,"), "sorted keys: {a}");
    }

    #[test]
    fn arc_fields_serialize_like_the_values_they_share() {
        #[derive(Serialize)]
        struct Owned {
            name: String,
            rows: Vec<Option<f64>>,
        }
        #[derive(Serialize)]
        struct Shared {
            name: Arc<String>,
            rows: Arc<Vec<Option<f64>>>,
        }
        let rows = vec![Some(1.0), None, Some(-0.5)];
        let owned = Owned { name: "t\"1".into(), rows: rows.clone() };
        let shared = Shared { name: Arc::new("t\"1".into()), rows: Arc::new(rows) };
        assert_eq!(to_json_string(&owned), to_json_string(&shared));
        assert_eq!(to_json_string(&Arc::<str>::from("x")), "\"x\"");
    }

    #[test]
    fn non_string_map_keys_are_quoted() {
        let mut m = BTreeMap::new();
        m.insert(5u64, "x");
        assert_eq!(to_json_string(&m), "{\"5\":\"x\"}");
    }
}

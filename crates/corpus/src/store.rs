//! Disk-backed sample store for replayed invocations (the staged
//! crawl → replay layout of §3.1, scaled past RSS).
//!
//! Replay at corpus scale cannot accumulate `Vec<ReplayReport>` — each
//! report carries full input-table dumps, so memory grows linearly with
//! corpus size. Instead, streamed replay (see [`crate::stream`]) writes each
//! shard of reports to a [`SampleStore`]: one checksummed, write-once shard
//! file per shard of notebooks, plus a JSON manifest of completed shards so
//! a killed run resumes where it left off.
//!
//! Shard files are `ASGS` record files in the durable record format,
//! [`crate::durable`] (magic, version, fnv64-checksummed records,
//! floats as IEEE-754 bit patterns); they and the JSON manifest are written
//! with its atomic, fsynced `publish`. The manifest lists each shard under
//! its trailer fold ([`durable::RecordFile::fold`]), which with the record
//! checksums covers every byte after the header, so no read hashes a whole
//! file a second time. A shard that fails verification, or that another
//! format version wrote, is deleted and re-replayed, never trusted.
//!
//! The frame records, most of a shard's bytes, are encoded, checksummed,
//! verified and decoded on the pool (`par_map`, results in table order), so
//! the files are the same at any thread count.
//!
//! Every read goes through one walker, `walk_shard`, which checks the
//! framing, the manifest checksum, the shard's structure and every record
//! checksum, then decodes only as deep as its caller needs: the stats
//! record (`SampleStore::open`), report skeletons
//! (`SampleStore::skeletons`, which the per-scenario scan counts from,
//! decoding no frame) or whole reports ([`SampleStore::reports`]).
//!
//! Replay shares input frames between invocations (one `Arc` per bound
//! variable), and a shard keeps that sharing on disk: version 2 writes a
//! frame table of the shard's distinct input frames once, and each
//! invocation names its inputs by table index. Decoding rebuilds one `Arc`
//! per table entry, so read-back holds one copy of each frame too.
//!
//! Records use the durable layer's little-endian codec, which is exact
//! (`corpus::filter` keys duplicates on the same parameter encoding).
//! Every encoder/decoder pair below is pinned by round-trip tests.

use crate::durable::{self, bad_data, fnv64, ByteReader, ByteWriter, Record, RecordFile, Records};
use crate::faults::{KindCounters, RobustnessStats};
use crate::flowgraph::OpKind;
use crate::replay::{OpInvocation, OpParams, ReplayOutcome, ReplayReport};
use autosuggest_dataframe::ops::{Agg, JoinType};
use autosuggest_dataframe::{Column, DataFrame, Value};
use autosuggest_obs as obs;
use autosuggest_parallel::par_map;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Shard file magic: "Auto-Suggest Generated Samples".
const MAGIC: [u8; 4] = *b"ASGS";
/// 2: a per-shard frame table; invocations reference frames by index.
/// 3: `input_hashes`/`output_hash` are dtype- and bit-exact
/// (`DataFrame::content_hash`).
/// 4: report skeletons no longer repeat the invocations' flow edges.
const VERSION: u16 = 4;
/// 2: `file_fnv` is the shard's trailer fold ([`durable::RecordFile::fold`]),
/// no longer a hash of the whole file, so a v1 manifest must not be read.
const MANIFEST_VERSION: u64 = 2;

/// Record tags within a shard file.
const TAG_SHARD_HEADER: u8 = 1;
const TAG_REPORT: u8 = 2;
const TAG_INVOCATION: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_END: u8 = 5;
const TAG_FRAME: u8 = 6;

// ---------------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------------

fn put_opt_str(w: &mut ByteWriter, v: Option<&str>) {
    match v {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
    }
}

fn get_opt_str(r: &mut ByteReader) -> io::Result<Option<String>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_str()?)),
        v => Err(bad_data(format!("invalid option byte {v}"))),
    }
}

fn put_str_vec(w: &mut ByteWriter, v: &[String]) {
    w.put_usize(v.len());
    for s in v {
        w.put_str(s);
    }
}

fn get_str_vec(r: &mut ByteReader) -> io::Result<Vec<String>> {
    let n = r.get_usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.get_str()?);
    }
    Ok(out)
}

fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Bool(b) => {
            w.put_u8(1);
            w.put_bool(*b);
        }
        Value::Int(i) => {
            w.put_u8(2);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(3);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(4);
            w.put_str(s);
        }
        Value::Date(d) => {
            w.put_u8(5);
            w.put_i64(*d);
        }
    }
}

fn get_value(r: &mut ByteReader) -> io::Result<Value> {
    Ok(match r.get_u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.get_bool()?),
        2 => Value::Int(r.get_i64()?),
        3 => Value::Float(r.get_f64()?),
        4 => Value::Str(r.get_str()?),
        5 => Value::Date(r.get_i64()?),
        t => return Err(bad_data(format!("invalid value tag {t}"))),
    })
}

fn put_frame(w: &mut ByteWriter, frame: &DataFrame) {
    let cols = frame.columns();
    w.put_usize(cols.len());
    for col in cols {
        w.put_str(col.name());
        w.put_usize(col.values().len());
        for v in col.values() {
            put_value(w, v);
        }
    }
}

fn get_frame(r: &mut ByteReader) -> io::Result<DataFrame> {
    let ncols = r.get_usize()?;
    let mut cols = Vec::with_capacity(ncols.min(1 << 12));
    for _ in 0..ncols {
        let name = r.get_str()?;
        let nrows = r.get_usize()?;
        let mut vals = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            vals.push(get_value(r)?);
        }
        cols.push(Column::new(name, vals));
    }
    DataFrame::new(cols).map_err(|e| bad_data(format!("stored frame invalid: {e}")))
}

/// Exact identity: what the encoding preserves. `Value`'s own equality is
/// looser (`Int(5) == Float(5.0)`, `-0.0 == 0.0`), and `content_hash`
/// matches this only up to 64-bit collisions, so neither may decide that
/// two frames share an entry.
fn same_frame(a: &DataFrame, b: &DataFrame) -> bool {
    fn same_value(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) | (Value::Date(x), Value::Date(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        }
    }
    a.num_columns() == b.num_columns()
        && a.columns().iter().zip(b.columns()).all(|(ca, cb)| {
            ca.name() == cb.name()
                && ca.values().len() == cb.values().len()
                && ca.values().iter().zip(cb.values()).all(|(x, y)| same_value(x, y))
        })
}

/// One shard's frame table under construction: each distinct input frame
/// once, in first-seen order, so the image is the same at any thread count.
#[derive(Default)]
struct FrameTable<'a> {
    frames: Vec<&'a DataFrame>,
    /// `input_hashes` value → table indices of the frames stored under it.
    /// Equality confirms every hit, so a 64-bit collision adds an entry
    /// rather than aliasing two tables.
    by_hash: HashMap<u64, Vec<usize>>,
    /// Input references resolved through the table.
    refs: usize,
}

impl<'a> FrameTable<'a> {
    /// Table indices of `inv`'s inputs, adding the frames not yet stored.
    fn indices(&mut self, inv: &'a OpInvocation) -> Vec<usize> {
        let mut out = Vec::with_capacity(inv.inputs.len());
        for (i, frame) in inv.inputs.iter().enumerate() {
            let hash = inv.input_hashes.get(i).copied().unwrap_or_else(|| frame.content_hash());
            let slots = self.by_hash.entry(hash).or_default();
            let hit = slots.iter().copied().find(|&s| {
                std::ptr::eq(self.frames[s], &**frame) || same_frame(self.frames[s], frame)
            });
            out.push(hit.unwrap_or_else(|| {
                self.frames.push(frame);
                slots.push(self.frames.len() - 1);
                self.frames.len() - 1
            }));
        }
        self.refs += out.len();
        out
    }
}

fn op_kind_tag(op: OpKind) -> u8 {
    match op {
        OpKind::Concat => 0,
        OpKind::DropNa => 1,
        OpKind::FillNa => 2,
        OpKind::GroupBy => 3,
        OpKind::Melt => 4,
        OpKind::Merge => 5,
        OpKind::Pivot => 6,
        OpKind::JsonNormalize => 7,
    }
}

fn op_kind_from_tag(t: u8) -> io::Result<OpKind> {
    Ok(match t {
        0 => OpKind::Concat,
        1 => OpKind::DropNa,
        2 => OpKind::FillNa,
        3 => OpKind::GroupBy,
        4 => OpKind::Melt,
        5 => OpKind::Merge,
        6 => OpKind::Pivot,
        7 => OpKind::JsonNormalize,
        _ => return Err(bad_data(format!("invalid op kind tag {t}"))),
    })
}

fn join_type_tag(j: JoinType) -> u8 {
    match j {
        JoinType::Inner => 0,
        JoinType::Left => 1,
        JoinType::Right => 2,
        JoinType::Outer => 3,
    }
}

fn join_type_from_tag(t: u8) -> io::Result<JoinType> {
    Ok(match t {
        0 => JoinType::Inner,
        1 => JoinType::Left,
        2 => JoinType::Right,
        3 => JoinType::Outer,
        _ => return Err(bad_data(format!("invalid join type tag {t}"))),
    })
}

fn agg_tag(a: Agg) -> u8 {
    match a {
        Agg::Sum => 0,
        Agg::Mean => 1,
        Agg::Count => 2,
        Agg::Min => 3,
        Agg::Max => 4,
        Agg::First => 5,
    }
}

fn agg_from_tag(t: u8) -> io::Result<Agg> {
    Ok(match t {
        0 => Agg::Sum,
        1 => Agg::Mean,
        2 => Agg::Count,
        3 => Agg::Min,
        4 => Agg::Max,
        5 => Agg::First,
        _ => return Err(bad_data(format!("invalid agg tag {t}"))),
    })
}

pub(crate) fn put_params(w: &mut ByteWriter, p: &OpParams) {
    match p {
        OpParams::Merge { left_on, right_on, how, suffixes, sort, indicator } => {
            w.put_u8(0);
            put_str_vec(w, left_on);
            put_str_vec(w, right_on);
            w.put_u8(join_type_tag(*how));
            w.put_str(&suffixes.0);
            w.put_str(&suffixes.1);
            w.put_bool(*sort);
            w.put_bool(*indicator);
        }
        OpParams::GroupBy { keys, aggs, sort, dropna } => {
            w.put_u8(1);
            put_str_vec(w, keys);
            w.put_usize(aggs.len());
            for (col, agg) in aggs {
                w.put_str(col);
                w.put_u8(agg_tag(*agg));
            }
            w.put_bool(*sort);
            w.put_bool(*dropna);
        }
        OpParams::Pivot { index, header, values, agg, fill_value, margins } => {
            w.put_u8(2);
            put_str_vec(w, index);
            put_str_vec(w, header);
            w.put_str(values);
            w.put_u8(agg_tag(*agg));
            match fill_value {
                None => w.put_u8(0),
                Some(v) => {
                    w.put_u8(1);
                    w.put_f64(*v);
                }
            }
            w.put_bool(*margins);
        }
        OpParams::Melt { id_vars, value_vars, var_name, value_name } => {
            w.put_u8(3);
            put_str_vec(w, id_vars);
            put_str_vec(w, value_vars);
            w.put_str(var_name);
            w.put_str(value_name);
        }
        OpParams::Concat { num_frames, axis, ignore_index } => {
            w.put_u8(4);
            w.put_usize(*num_frames);
            w.put_u8(*axis);
            w.put_bool(*ignore_index);
        }
        OpParams::DropNa { how_all, subset } => {
            w.put_u8(5);
            w.put_bool(*how_all);
            match subset {
                None => w.put_u8(0),
                Some(cols) => {
                    w.put_u8(1);
                    put_str_vec(w, cols);
                }
            }
        }
        OpParams::FillNa { value } => {
            w.put_u8(6);
            w.put_str(value);
        }
        OpParams::JsonNormalize { record_path } => {
            w.put_u8(7);
            match record_path {
                None => w.put_u8(0),
                Some(path) => {
                    w.put_u8(1);
                    put_str_vec(w, path);
                }
            }
        }
    }
}

fn get_params(r: &mut ByteReader) -> io::Result<OpParams> {
    Ok(match r.get_u8()? {
        0 => OpParams::Merge {
            left_on: get_str_vec(r)?,
            right_on: get_str_vec(r)?,
            how: join_type_from_tag(r.get_u8()?)?,
            suffixes: (r.get_str()?, r.get_str()?),
            sort: r.get_bool()?,
            indicator: r.get_bool()?,
        },
        1 => OpParams::GroupBy {
            keys: get_str_vec(r)?,
            aggs: {
                let n = r.get_usize()?;
                let mut aggs = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    let col = r.get_str()?;
                    let agg = agg_from_tag(r.get_u8()?)?;
                    aggs.push((col, agg));
                }
                aggs
            },
            sort: r.get_bool()?,
            dropna: r.get_bool()?,
        },
        2 => OpParams::Pivot {
            index: get_str_vec(r)?,
            header: get_str_vec(r)?,
            values: r.get_str()?,
            agg: agg_from_tag(r.get_u8()?)?,
            fill_value: match r.get_u8()? {
                0 => None,
                1 => Some(r.get_f64()?),
                v => return Err(bad_data(format!("invalid option byte {v}"))),
            },
            margins: r.get_bool()?,
        },
        3 => OpParams::Melt {
            id_vars: get_str_vec(r)?,
            value_vars: get_str_vec(r)?,
            var_name: r.get_str()?,
            value_name: r.get_str()?,
        },
        4 => OpParams::Concat {
            num_frames: r.get_usize()?,
            axis: r.get_u8()?,
            ignore_index: r.get_bool()?,
        },
        5 => OpParams::DropNa {
            how_all: r.get_bool()?,
            subset: match r.get_u8()? {
                0 => None,
                1 => Some(get_str_vec(r)?),
                v => return Err(bad_data(format!("invalid option byte {v}"))),
            },
        },
        6 => OpParams::FillNa { value: r.get_str()? },
        7 => OpParams::JsonNormalize {
            record_path: match r.get_u8()? {
                0 => None,
                1 => Some(get_str_vec(r)?),
                v => return Err(bad_data(format!("invalid option byte {v}"))),
            },
        },
        t => return Err(bad_data(format!("invalid params tag {t}"))),
    })
}

fn put_outcome(w: &mut ByteWriter, o: &ReplayOutcome) {
    match o {
        ReplayOutcome::Success => w.put_u8(0),
        ReplayOutcome::MissingFile(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        ReplayOutcome::MissingPackage(s) => {
            w.put_u8(2);
            w.put_str(s);
        }
        ReplayOutcome::Timeout => w.put_u8(3),
        ReplayOutcome::ExecutionError(s) => {
            w.put_u8(4);
            w.put_str(s);
        }
        ReplayOutcome::OperatorPanic(s) => {
            w.put_u8(5);
            w.put_str(s);
        }
    }
}

fn get_outcome(r: &mut ByteReader) -> io::Result<ReplayOutcome> {
    Ok(match r.get_u8()? {
        0 => ReplayOutcome::Success,
        1 => ReplayOutcome::MissingFile(r.get_str()?),
        2 => ReplayOutcome::MissingPackage(r.get_str()?),
        3 => ReplayOutcome::Timeout,
        4 => ReplayOutcome::ExecutionError(r.get_str()?),
        5 => ReplayOutcome::OperatorPanic(r.get_str()?),
        t => return Err(bad_data(format!("invalid outcome tag {t}"))),
    })
}

fn error_kind_tag(k: crate::error::ReplayErrorKind) -> u8 {
    use crate::error::ReplayErrorKind::*;
    match k {
        IoPath => 0,
        MissingPackage => 1,
        SchemaMismatch => 2,
        OperatorPanic => 3,
        Timeout => 4,
    }
}

fn error_kind_from_tag(t: u8) -> io::Result<crate::error::ReplayErrorKind> {
    use crate::error::ReplayErrorKind::*;
    Ok(match t {
        0 => IoPath,
        1 => MissingPackage,
        2 => SchemaMismatch,
        3 => OperatorPanic,
        4 => Timeout,
        _ => return Err(bad_data(format!("invalid error kind tag {t}"))),
    })
}

/// The per-operator sample record: one instrumented invocation, its inputs
/// as frame-table indices, and its parameters — the store's equivalent of
/// the exemplar pipeline's `data.csv` + `param.json` pair.
fn encode_invocation(inv: &OpInvocation, inputs: &[usize]) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.put_str(&inv.notebook_id);
    w.put_str(&inv.dataset_group);
    w.put_usize(inv.cell_index);
    w.put_u8(op_kind_tag(inv.op));
    w.put_usize(inputs.len());
    for &i in inputs {
        w.put_usize(i);
    }
    put_params(&mut w, &inv.params);
    w.put_usize(inv.input_hashes.len());
    for &h in &inv.input_hashes {
        w.put_u64(h);
    }
    w.put_u64(inv.output_hash);
    w.put_usize(inv.output_rows);
    w.put_usize(inv.output_cols);
    w.into_bytes()
}

/// Decode an invocation whose inputs index into the shard's `frames`.
fn decode_invocation(payload: &[u8], frames: &[Arc<DataFrame>]) -> io::Result<OpInvocation> {
    let mut r = ByteReader::new(payload);
    let notebook_id = r.get_str()?;
    let dataset_group = r.get_str()?;
    let cell_index = r.get_usize()?;
    let op = op_kind_from_tag(r.get_u8()?)?;
    let n_inputs = r.get_count(8)?;
    let mut inputs = Vec::with_capacity(n_inputs);
    for _ in 0..n_inputs {
        let i = r.get_usize()?;
        let frame = frames.get(i).ok_or_else(|| {
            bad_data(format!("frame index {i} out of range ({} frames)", frames.len()))
        })?;
        inputs.push(Arc::clone(frame));
    }
    let params = get_params(&mut r)?;
    let n_hashes = r.get_usize()?;
    let mut input_hashes = Vec::with_capacity(n_hashes.min(16));
    for _ in 0..n_hashes {
        input_hashes.push(r.get_u64()?);
    }
    let inv = OpInvocation {
        notebook_id,
        dataset_group,
        cell_index,
        op,
        inputs,
        params,
        input_hashes,
        output_hash: r.get_u64()?,
        output_rows: r.get_usize()?,
        output_cols: r.get_usize()?,
    };
    r.finish()?;
    Ok(inv)
}

/// Report skeleton: everything in [`ReplayReport`] except `invocations`,
/// which follow as their own records (so a reader can stream invocations
/// without materialising whole reports).
fn encode_report_skeleton(rep: &ReplayReport) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.put_str(&rep.notebook_id);
    w.put_str(&rep.dataset_group);
    put_outcome(&mut w, &rep.outcome);
    w.put_usize(rep.cells_executed);
    w.put_usize(rep.invocations.len());
    put_str_vec(&mut w, &rep.packages_installed);
    put_str_vec(&mut w, &rep.files_recovered);
    w.put_usize(rep.cell_retries);
    w.put_usize(rep.injected_faults.len());
    for &k in &rep.injected_faults {
        w.put_u8(error_kind_tag(k));
    }
    w.into_bytes()
}

/// A report as its skeleton record stores it, plus the number of
/// invocation records that follow it. `report.invocations` is filled only
/// when the shard is read whole ([`SampleStore::reports`]); the skeleton
/// scan (`SampleStore::skeletons`) leaves it empty.
#[derive(Debug, Clone)]
pub(crate) struct ReportSkeleton {
    pub report: ReplayReport,
    /// Invocation records stored for this report.
    pub invocations: usize,
}

fn decode_report_skeleton(payload: &[u8]) -> io::Result<ReportSkeleton> {
    let mut r = ByteReader::new(payload);
    let notebook_id = r.get_str()?;
    let dataset_group = r.get_str()?;
    let outcome = get_outcome(&mut r)?;
    let cells_executed = r.get_usize()?;
    let invocations = r.get_usize()?;
    let packages_installed = get_str_vec(&mut r)?;
    let files_recovered = get_str_vec(&mut r)?;
    let cell_retries = r.get_usize()?;
    let n_faults = r.get_usize()?;
    let mut injected_faults = Vec::with_capacity(n_faults.min(1 << 10));
    for _ in 0..n_faults {
        injected_faults.push(error_kind_from_tag(r.get_u8()?)?);
    }
    r.finish()?;
    Ok(ReportSkeleton {
        report: ReplayReport {
            notebook_id,
            dataset_group,
            outcome,
            cells_executed,
            invocations: Vec::new(),
            packages_installed,
            files_recovered,
            cell_retries,
            injected_faults,
        },
        invocations,
    })
}

fn put_kind_counters(w: &mut ByteWriter, k: &KindCounters) {
    w.put_usize(k.injected);
    w.put_usize(k.failures);
    w.put_usize(k.retries);
    w.put_usize(k.recovered);
    w.put_usize(k.quarantined);
}

fn get_kind_counters(r: &mut ByteReader) -> io::Result<KindCounters> {
    Ok(KindCounters {
        injected: r.get_usize()?,
        failures: r.get_usize()?,
        retries: r.get_usize()?,
        recovered: r.get_usize()?,
        quarantined: r.get_usize()?,
    })
}

fn encode_stats(s: &RobustnessStats) -> Vec<u8> {
    let mut w = ByteWriter::default();
    put_opt_str(&mut w, s.fault_spec.as_deref());
    w.put_usize(s.notebooks);
    w.put_usize(s.failed_first_pass);
    w.put_usize(s.retried_notebooks);
    w.put_usize(s.recovered_notebooks);
    w.put_usize(s.quarantined_notebooks);
    w.put_usize(s.cell_retries);
    put_kind_counters(&mut w, &s.io_path);
    put_kind_counters(&mut w, &s.missing_package);
    put_kind_counters(&mut w, &s.schema_mismatch);
    put_kind_counters(&mut w, &s.operator_panic);
    put_kind_counters(&mut w, &s.timeout);
    w.into_bytes()
}

fn decode_stats(payload: &[u8]) -> io::Result<RobustnessStats> {
    let mut r = ByteReader::new(payload);
    let stats = RobustnessStats {
        fault_spec: get_opt_str(&mut r)?,
        notebooks: r.get_usize()?,
        failed_first_pass: r.get_usize()?,
        retried_notebooks: r.get_usize()?,
        recovered_notebooks: r.get_usize()?,
        quarantined_notebooks: r.get_usize()?,
        cell_retries: r.get_usize()?,
        io_path: get_kind_counters(&mut r)?,
        missing_package: get_kind_counters(&mut r)?,
        schema_mismatch: get_kind_counters(&mut r)?,
        operator_panic: get_kind_counters(&mut r)?,
        timeout: get_kind_counters(&mut r)?,
    };
    r.finish()?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Shard files
// ---------------------------------------------------------------------------

/// A shard file image plus its frame-table accounting. Its trailer fold
/// is what the manifest lists as `file_fnv`.
struct ShardImage {
    file: RecordFile,
    /// Distinct frames written to the table.
    frames: usize,
    /// Input references the invocations make into it.
    frame_refs: usize,
}

/// Serialise one shard's reports + stats into a complete shard file image:
/// header, frame table, then each report skeleton followed by its
/// invocations, then stats and an end marker. The frame records, most of
/// the image, are encoded and checksummed on the pool and moved into the
/// image in table order, so it is the same at any thread count.
fn encode_shard(shard_id: usize, reports: &[ReplayReport], stats: &RobustnessStats) -> ShardImage {
    let mut table = FrameTable::default();
    let inputs: Vec<Vec<usize>> = reports
        .iter()
        .flat_map(|rep| &rep.invocations)
        .map(|inv| table.indices(inv))
        .collect();

    let mut file = RecordFile::new(MAGIC, VERSION);
    let mut header = ByteWriter::default();
    header.put_usize(shard_id);
    header.put_usize(reports.len());
    header.put_usize(table.frames.len());
    file.record(TAG_SHARD_HEADER, &header.into_bytes());
    let frames = par_map(&table.frames, |frame| {
        let mut w = ByteWriter::default();
        put_frame(&mut w, frame);
        let payload = w.into_bytes();
        let sum = fnv64(&payload);
        (payload, sum)
    });
    for (payload, sum) in frames {
        file.record_owned(TAG_FRAME, payload, sum);
    }

    let mut inputs = inputs.iter();
    for rep in reports {
        file.record(TAG_REPORT, &encode_report_skeleton(rep));
        for (inv, ids) in rep.invocations.iter().zip(&mut inputs) {
            file.record(TAG_INVOCATION, &encode_invocation(inv, ids));
        }
    }
    file.record(TAG_STATS, &encode_stats(stats));
    file.record(TAG_END, &[]);
    ShardImage { file, frames: table.frames.len(), frame_refs: table.refs }
}

/// How deep [`walk_shard`] decodes. Every depth makes the same checks of
/// framing, structure and checksums; they differ only in what they build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// The stats record only: `SampleStore::open`.
    Stats,
    /// Report skeletons and stats, no frame or invocation payload decoded:
    /// [`SampleStore::skeletons`].
    Skeletons,
    /// Whole reports: [`SampleStore::read_shard`] and [`SampleStore::reports`].
    Reports,
}

/// Verify every record's payload on the pool; the first failure in file
/// order is the error.
fn verify_all<'a>(records: &[Record<'a>]) -> io::Result<Vec<&'a [u8]>> {
    par_map(records, Record::verify).into_iter().collect()
}

/// Walk a complete shard file image and decode it to `depth`. Nothing is
/// returned unless the image matches the manifest's `fold`, its header
/// matches `shard_id` and the frames, reports and records that follow, and
/// every record checksum holds, frames included. Records are verified on
/// the pool (frames decoded there too at [`Depth::Reports`]); reports and
/// invocations are walked in order, since each invocation belongs to the
/// report before it.
fn walk_shard(
    shard_id: usize,
    buf: &[u8],
    fold: u64,
    depth: Depth,
) -> io::Result<(Vec<ReportSkeleton>, RobustnessStats)> {
    let records = Records::open(buf, MAGIC, VERSION)?;
    if records.fold() != fold {
        return Err(bad_data("shard does not match its manifest checksum"));
    }
    let records = records.into_records();
    let (header, rest) = records
        .split_first()
        .filter(|(header, _)| header.tag == TAG_SHARD_HEADER)
        .ok_or_else(|| bad_data("shard does not start with a header record"))?;
    let mut hr = ByteReader::new(header.verify()?);
    let stored_id = hr.get_usize()?;
    let notebook_count = hr.get_usize()?;
    let frame_count = hr.get_usize()?;
    hr.finish()?;
    if stored_id != shard_id {
        return Err(bad_data(format!(
            "shard id mismatch: file says {stored_id}, manifest says {shard_id}"
        )));
    }

    if rest.len() < frame_count || rest[..frame_count].iter().any(|r| r.tag != TAG_FRAME) {
        return Err(bad_data(format!("shard does not hold the {frame_count} frames it declares")));
    }
    let (frame_records, rest) = rest.split_at(frame_count);
    let frames: Vec<Arc<DataFrame>> = if depth == Depth::Reports {
        par_map(frame_records, |record| {
            let mut r = ByteReader::new(record.verify()?);
            let frame = get_frame(&mut r)?;
            r.finish()?;
            Ok(Arc::new(frame))
        })
        .into_iter()
        .collect::<io::Result<_>>()?
    } else {
        verify_all(frame_records)?;
        Vec::new()
    };

    let mut payloads = rest.iter().map(|r| r.tag).zip(verify_all(rest)?);
    let mut skeletons: Vec<ReportSkeleton> = Vec::new();
    let (mut reports, mut pending) = (0usize, 0usize);
    let mut stats: Option<RobustnessStats> = None;
    loop {
        let (tag, payload) =
            payloads.next().ok_or_else(|| bad_data("shard missing end record"))?;
        match tag {
            TAG_REPORT | TAG_STATS | TAG_END if pending != 0 => {
                return Err(bad_data(format!("record tag {tag} before {pending} invocations")));
            }
            TAG_INVOCATION if pending == 0 => {
                return Err(bad_data("more invocation records than the report declared"));
            }
            TAG_REPORT => {
                let skel = decode_report_skeleton(payload)?;
                pending = skel.invocations;
                reports += 1;
                if depth != Depth::Stats {
                    skeletons.push(skel);
                }
            }
            TAG_INVOCATION => {
                pending -= 1;
                if let (Depth::Reports, Some(skel)) = (depth, skeletons.last_mut()) {
                    skel.report.invocations.push(decode_invocation(payload, &frames)?);
                }
            }
            TAG_STATS => stats = Some(decode_stats(payload)?),
            TAG_END => break,
            t => return Err(bad_data(format!("unknown record tag {t}"))),
        }
    }
    if payloads.next().is_some() {
        return Err(bad_data("records after the end record"));
    }
    if reports != notebook_count {
        return Err(bad_data(format!(
            "shard header declared {notebook_count} reports, found {reports}"
        )));
    }
    let stats = stats.ok_or_else(|| bad_data("shard missing stats record"))?;
    Ok((skeletons, stats))
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Per-shard bookkeeping recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardMeta {
    /// The shard file's trailer fold ([`durable::RecordFile::fold`]),
    /// checked on open and on every read. With the per-record checksums it
    /// covers every byte after the header. Manifest v1 used this key for a
    /// hash of the whole file.
    pub file_fnv: u64,
    /// Reports in the shard.
    pub notebooks: usize,
    /// Invocation records in the shard.
    pub invocations: usize,
}

/// Whether `name` is a shard file name [`SampleStore`] writes:
/// `shard-<id, at least 5 digits>.asg`.
fn is_shard_name(name: &str) -> bool {
    name.strip_prefix("shard-")
        .and_then(|rest| rest.strip_suffix(".asg"))
        .is_some_and(|id| id.len() >= 5 && id.bytes().all(|b| b.is_ascii_digit()))
}

/// A directory of checksummed shard files plus a manifest of completed
/// shards, keyed by a corpus id so stale stores are never resumed into.
///
/// Layout under `root`:
/// ```text
/// manifest.json          completed-shard index (atomic rewrite per shard)
/// shards/shard-00042.asg one write-once file per completed shard
/// ```
///
/// Writes go through `durable::publish`, the manifest is rewritten after
/// *each* shard, and `open` drops any manifest entry whose file is missing
/// or fails checksum — so a crash at any point loses at most the shard in
/// flight.
pub struct SampleStore {
    root: PathBuf,
    corpus_id: String,
    shard_size: usize,
    total_shards: usize,
    shards: BTreeMap<usize, ShardMeta>,
    /// Robustness stats of the shards verified by `open`, decoded from the
    /// bytes it already read, so a resumed run need not read them again.
    resumed: BTreeMap<usize, RobustnessStats>,
}

impl SampleStore {
    /// Open (or create) a store at `root` for the given corpus identity.
    ///
    /// An existing manifest is honoured only if `(corpus_id, shard_size,
    /// total_shards)` all match; otherwise the store is reset.
    /// Listed shards are read once and walked to their stats record with
    /// every check a full read makes (manifest checksum, structure, record
    /// checksums), and their stats kept ([`Self::resumed_stats`]); corrupt,
    /// malformed or missing shards are dropped from the manifest (and will
    /// be re-replayed). Stale tmp files from crashed writers are swept.
    pub fn open(
        root: impl Into<PathBuf>,
        corpus_id: &str,
        shard_size: usize,
        total_shards: usize,
    ) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("shards"))?;

        let mut store = SampleStore {
            root,
            corpus_id: corpus_id.to_string(),
            shard_size,
            total_shards,
            shards: BTreeMap::new(),
            resumed: BTreeMap::new(),
        };
        durable::sweep_tmp(&store.root)?;
        durable::sweep_tmp(&store.root.join("shards"))?;

        let manifest = store.root.join("manifest.json");
        let resumed = match fs::read_to_string(&manifest) {
            Ok(text) => store.load_manifest(&text),
            Err(_) => false,
        };
        if !resumed {
            store.shards.clear();
            // Fresh (or incompatible) store: drop any leftover shard files
            // so a later manifest rewrite can't resurrect foreign data. Only
            // names `shard_path` writes are ours; anything else is kept.
            let mut stale: Vec<PathBuf> = fs::read_dir(store.root.join("shards"))?
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_str().is_some_and(is_shard_name))
                .map(|e| e.path())
                .collect();
            stale.sort();
            for path in stale {
                let _ = fs::remove_file(path);
            }
            store.write_manifest()?;
        } else {
            // Verify every listed shard file and keep its stats; drop
            // entries that fail either.
            let listed: Vec<usize> = store.shards.keys().copied().collect();
            let mut dropped = false;
            for id in listed {
                match store.read(id, Depth::Stats) {
                    Ok((_, stats)) => {
                        store.resumed.insert(id, stats);
                    }
                    Err(_) => {
                        store.shards.remove(&id);
                        let _ = fs::remove_file(store.shard_path(id));
                        dropped = true;
                    }
                }
            }
            if dropped {
                store.write_manifest()?;
            }
            obs::counter_add("store.shards_resumed", store.shards.len() as u64);
        }
        Ok(store)
    }

    fn shard_path(&self, id: usize) -> PathBuf {
        self.root.join("shards").join(format!("shard-{id:05}.asg"))
    }

    fn load_manifest(&mut self, text: &str) -> bool {
        use serde_json::Value as Json;
        let Ok(v) = serde_json::from_str(text) else { return false };
        let ok = v.get("version").and_then(Json::as_u64) == Some(MANIFEST_VERSION)
            && v.get("corpus_id").and_then(|x| x.as_str()) == Some(self.corpus_id.as_str())
            && v.get("shard_size").and_then(Json::as_u64) == Some(self.shard_size as u64)
            && v.get("total_shards").and_then(Json::as_u64) == Some(self.total_shards as u64);
        if !ok {
            return false;
        }
        let Some(shards) = v.get("shards").and_then(|x| x.as_array()) else { return false };
        for entry in shards {
            let (Some(id), Some(fnv), Some(nbs), Some(invs)) = (
                entry.get("id").and_then(Json::as_u64),
                entry.get("file_fnv").and_then(Json::as_u64),
                entry.get("notebooks").and_then(Json::as_u64),
                entry.get("invocations").and_then(Json::as_u64),
            ) else {
                return false;
            };
            if id as usize >= self.total_shards {
                return false;
            }
            self.shards.insert(
                id as usize,
                ShardMeta {
                    file_fnv: fnv,
                    notebooks: nbs as usize,
                    invocations: invs as usize,
                },
            );
        }
        true
    }

    fn write_manifest(&self) -> io::Result<()> {
        let shards: Vec<serde_json::Value> = self
            .shards
            .iter()
            .map(|(id, meta)| {
                serde_json::json!({
                    "id": *id as u64,
                    "file_fnv": meta.file_fnv,
                    "notebooks": meta.notebooks as u64,
                    "invocations": meta.invocations as u64,
                })
            })
            .collect();
        let doc = serde_json::json!({
            "version": MANIFEST_VERSION,
            "corpus_id": self.corpus_id.clone(),
            "shard_size": self.shard_size as u64,
            "total_shards": self.total_shards as u64,
            "shards": shards,
        });
        durable::publish(&self.root.join("manifest.json"), [doc.to_string().as_bytes()])
    }

    pub(crate) fn shard_meta(&self, id: usize) -> Option<ShardMeta> {
        self.shards.get(&id).copied()
    }

    /// The robustness stats of shard `id` if `open` found it complete
    /// (read once there, with its checksum).
    pub fn resumed_stats(&self, id: usize) -> Option<&RobustnessStats> {
        self.resumed.get(&id)
    }

    /// Whether every shard `0..total_shards` is present.
    pub fn all_complete(&self) -> bool {
        self.shards.len() == self.total_shards
    }

    /// Persist one replayed shard and record it in the manifest. The shard
    /// file lands via tmp + rename and the manifest is rewritten after, so
    /// a crash mid-write leaves the previous manifest intact.
    pub fn write_shard(
        &mut self,
        id: usize,
        reports: &[ReplayReport],
        stats: &RobustnessStats,
    ) -> io::Result<()> {
        if id >= self.total_shards {
            return Err(bad_data(format!(
                "shard id {id} out of range (total {})",
                self.total_shards
            )));
        }
        let _span = obs::span("store_write");
        let ShardImage { file, frames, frame_refs } = encode_shard(id, reports, stats);
        durable::publish(&self.shard_path(id), file.parts())?;
        let file_fnv = file.fold();
        let invocations = reports.iter().map(|r| r.invocations.len()).sum::<usize>();
        self.shards.insert(
            id,
            ShardMeta { file_fnv, notebooks: reports.len(), invocations },
        );
        self.write_manifest()?;
        obs::counter_add("store.shards_written", 1);
        obs::counter_add("store.reports_written", reports.len() as u64);
        obs::counter_add("store.invocations_written", invocations as u64);
        let bytes = file.parts().map(<[u8]>::len).sum::<usize>();
        obs::counter_add("store.bytes_written", bytes as u64);
        obs::counter_add("store.frames_written", frames as u64);
        obs::counter_add("store.frame_refs", frame_refs as u64);
        Ok(())
    }

    /// Read shard `id`'s file once and walk it to `depth` ([`walk_shard`]).
    /// Counts each file read in `store.shard_reads`.
    fn read(&self, id: usize, depth: Depth) -> io::Result<(Vec<ReportSkeleton>, RobustnessStats)> {
        let _span = obs::span("store_read");
        let meta = self
            .shards
            .get(&id)
            .ok_or_else(|| bad_data(format!("shard {id} not in manifest")))?;
        let bytes = fs::read(self.shard_path(id))?;
        obs::counter_add("store.shard_reads", 1);
        walk_shard(id, &bytes, meta.file_fnv, depth)
    }

    /// Load one completed shard's reports and stats.
    pub fn read_shard(&self, id: usize) -> io::Result<(Vec<ReplayReport>, RobustnessStats)> {
        let (skeletons, stats) = self.read(id, Depth::Reports)?;
        Ok((skeletons.into_iter().map(|s| s.report).collect(), stats))
    }

    /// Every completed shard's reports walked to `depth`, in shard-id
    /// order, one shard in memory at a time. A shard that fails to read
    /// yields one error in its place.
    fn stream(&self, depth: Depth) -> impl Iterator<Item = io::Result<ReportSkeleton>> + '_ {
        self.shards.keys().flat_map(move |&id| {
            let (skeletons, err) = match self.read(id, depth) {
                Ok((skeletons, _stats)) => (skeletons, None),
                Err(e) => (Vec::new(), Some(e)),
            };
            skeletons.into_iter().map(Ok).chain(err.map(Err))
        })
    }

    /// Stream every completed shard's reports in shard-id order, holding
    /// one shard in memory at a time; concatenated output equals the
    /// in-memory `replay_corpus` report order exactly.
    pub fn reports(&self) -> impl Iterator<Item = io::Result<ReplayReport>> + '_ {
        self.stream(Depth::Reports).map(|s| s.map(|s| s.report))
    }

    /// [`Self::reports`] without the invocations: each report's skeleton
    /// and its invocation count. Every record is still read and verified,
    /// but no frame or invocation payload is decoded.
    pub(crate) fn skeletons(&self) -> impl Iterator<Item = io::Result<ReportSkeleton>> + '_ {
        self.stream(Depth::Skeletons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ReplayErrorKind;
    use std::path::Path;

    /// Ids of the shards `store` holds as complete, ascending.
    fn completed(store: &SampleStore) -> Vec<usize> {
        store.shards.keys().copied().collect()
    }

    fn frame() -> DataFrame {
        DataFrame::new(vec![
            Column::new(
                "k",
                vec![Value::Int(1), Value::Null, Value::Str("x".into()), Value::Date(86400)],
            ),
            Column::new(
                "v",
                vec![
                    Value::Float(1.5),
                    Value::Float(-0.0),
                    Value::Float(f64::from_bits(0x7ff8_0000_0000_1234)),
                    Value::Bool(true),
                ],
            ),
        ])
        .unwrap()
    }

    fn invocation(op: OpKind, params: OpParams) -> OpInvocation {
        OpInvocation {
            notebook_id: "nb-join-00001".into(),
            dataset_group: "grp-join-00001".into(),
            cell_index: 3,
            op,
            inputs: vec![Arc::new(frame()), Arc::new(frame())],
            params,
            input_hashes: vec![11, 22],
            output_hash: 33,
            output_rows: 4,
            output_cols: 2,
        }
    }

    fn all_params() -> Vec<(OpKind, OpParams)> {
        vec![
            (
                OpKind::Merge,
                OpParams::Merge {
                    left_on: vec!["a".into()],
                    right_on: vec!["b".into()],
                    how: JoinType::Outer,
                    suffixes: ("_x".into(), "_y".into()),
                    sort: false,
                    indicator: true,
                },
            ),
            (
                OpKind::GroupBy,
                OpParams::GroupBy {
                    keys: vec!["k".into()],
                    aggs: vec![("v".into(), Agg::Mean), ("w".into(), Agg::First)],
                    sort: true,
                    dropna: false,
                },
            ),
            (
                OpKind::Pivot,
                OpParams::Pivot {
                    index: vec!["i".into()],
                    header: vec!["h".into()],
                    values: "v".into(),
                    agg: Agg::Sum,
                    fill_value: Some(-0.0),
                    margins: true,
                },
            ),
            (
                OpKind::Melt,
                OpParams::Melt {
                    id_vars: vec!["i".into()],
                    value_vars: vec!["a".into(), "b".into()],
                    var_name: "variable".into(),
                    value_name: "value".into(),
                },
            ),
            (OpKind::Concat, OpParams::Concat { num_frames: 2, axis: 0, ignore_index: true }),
            (OpKind::DropNa, OpParams::DropNa { how_all: false, subset: None }),
            (OpKind::FillNa, OpParams::FillNa { value: "0".into() }),
            (
                OpKind::JsonNormalize,
                OpParams::JsonNormalize { record_path: Some(vec!["r".into()]) },
            ),
        ]
    }

    fn report() -> ReplayReport {
        ReplayReport {
            notebook_id: "nb-join-00001".into(),
            dataset_group: "grp-join-00001".into(),
            outcome: ReplayOutcome::Success,
            cells_executed: 5,
            invocations: all_params()
                .into_iter()
                .map(|(op, p)| invocation(op, p))
                .collect(),
            packages_installed: vec!["seaborn".into()],
            files_recovered: vec!["a.csv".into()],
            cell_retries: 2,
            injected_faults: vec![ReplayErrorKind::Timeout, ReplayErrorKind::IoPath],
        }
    }

    fn stats() -> RobustnessStats {
        let mut s = RobustnessStats {
            fault_spec: Some("seed=1;rate=0.1".into()),
            notebooks: 7,
            failed_first_pass: 2,
            retried_notebooks: 2,
            recovered_notebooks: 1,
            quarantined_notebooks: 1,
            cell_retries: 9,
            ..RobustnessStats::default()
        };
        s.io_path.injected = 3;
        s.timeout.quarantined = 1;
        s
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "autosuggest-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const DEPTHS: [Depth; 3] = [Depth::Stats, Depth::Skeletons, Depth::Reports];

    /// A shard image walked to [`Depth::Reports`], as `read_shard` returns it.
    fn decode_shard(
        shard_id: usize,
        buf: &[u8],
        fold: u64,
    ) -> io::Result<(Vec<ReplayReport>, RobustnessStats)> {
        let (skeletons, stats) = walk_shard(shard_id, buf, fold, Depth::Reports)?;
        Ok((skeletons.into_iter().map(|s| s.report).collect(), stats))
    }

    /// One report whose invocations are `invs`, in a one-report shard
    /// image, decoded again.
    fn shard_roundtrip(invs: Vec<OpInvocation>) -> (ShardImage, Vec<OpInvocation>) {
        let mut rep = report();
        rep.invocations = invs;
        let image = encode_shard(0, &[rep], &stats());
        let (mut decoded, _) = decode_shard(0, &image.file.to_bytes(), image.file.fold()).unwrap();
        (image, decoded.remove(0).invocations)
    }

    #[test]
    fn invocation_roundtrip_all_params_bitexact() {
        for (op, params) in all_params() {
            let inv = invocation(op, params);
            let (_, decoded) = shard_roundtrip(vec![inv.clone()]);
            assert_eq!(format!("{inv:?}"), format!("{:?}", decoded[0]));
            // Float bit patterns survive exactly (Debug can mask NaN payloads).
            for (a, b) in inv.inputs.iter().zip(decoded[0].inputs.iter()) {
                assert!(same_frame(a, b));
            }
        }
    }

    #[test]
    fn shared_input_is_written_once_and_decodes_to_one_arc() {
        let shared = Arc::new(frame());
        let hash = shared.content_hash();
        let mut invs: Vec<OpInvocation> =
            all_params().into_iter().map(|(op, p)| invocation(op, p)).collect();
        for (k, inv) in invs.iter_mut().enumerate() {
            // Half the references share one Arc; the rest are equal copies.
            let f = if k % 2 == 0 { Arc::clone(&shared) } else { Arc::new(frame()) };
            inv.inputs = vec![Arc::clone(&f), f];
            inv.input_hashes = vec![hash, hash];
        }
        let (image, decoded) = shard_roundtrip(invs);
        assert_eq!((image.frames, image.frame_refs), (1, 16));
        let first = &decoded[0].inputs[0];
        assert!(same_frame(first, &shared));
        for inv in &decoded {
            for f in &inv.inputs {
                assert!(Arc::ptr_eq(f, first), "read-back holds a second copy");
            }
        }
    }

    #[test]
    fn hash_collision_keeps_both_frames_exact() {
        // `loose` equals `frame()` under `Value`'s equality, but its cells
        // differ in type and sign bits; `other` is a different table. All
        // three are forced under one hash value, as a 64-bit collision would.
        let loose = DataFrame::new(vec![
            Column::new(
                "k",
                vec![Value::Float(1.0), Value::Null, Value::Str("x".into()), Value::Date(86400)],
            ),
            Column::new(
                "v",
                vec![
                    Value::Float(1.5),
                    Value::Float(0.0),
                    Value::Float(f64::from_bits(0x7ff8_0000_0000_1234)),
                    Value::Bool(true),
                ],
            ),
        ])
        .unwrap();
        let other = DataFrame::from_columns(vec![("z", vec![Value::Int(7)])]).unwrap();
        let originals = [frame(), loose, other];
        let mut inv = invocation(OpKind::Concat, all_params()[4].1.clone());
        inv.inputs = originals.iter().cloned().map(Arc::new).collect();
        inv.input_hashes = vec![42; 3];
        let (image, decoded) = shard_roundtrip(vec![inv]);
        assert_eq!((image.frames, image.frame_refs), (3, 3));
        for (orig, back) in originals.iter().zip(&decoded[0].inputs) {
            assert!(same_frame(orig, back), "{orig:?} decoded as {back:?}");
        }
        assert!(!same_frame(&originals[0], &originals[1]));
    }

    #[test]
    fn out_of_range_frame_index_is_an_error() {
        let inv = invocation(OpKind::DropNa, all_params()[5].1.clone());
        let mut rep = report();
        rep.invocations = vec![inv.clone()];
        let mut file = RecordFile::new(MAGIC, VERSION);
        let mut header = ByteWriter::default();
        for v in [0, 1, 1] {
            header.put_usize(v);
        }
        file.record(TAG_SHARD_HEADER, &header.into_bytes());
        let mut w = ByteWriter::default();
        put_frame(&mut w, &frame());
        file.record(TAG_FRAME, &w.into_bytes());
        file.record(TAG_REPORT, &encode_report_skeleton(&rep));
        file.record(TAG_INVOCATION, &encode_invocation(&inv, &[0, 1]));
        file.record(TAG_STATS, &encode_stats(&stats()));
        file.record(TAG_END, &[]);
        let err = decode_shard(0, &file.to_bytes(), file.fold()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame index 1 out of range"), "{err}");
    }

    #[test]
    fn shard_roundtrip_preserves_reports_and_stats() {
        let reports = vec![report(), {
            let mut r = report();
            r.notebook_id = "nb-json-00002".into();
            r.outcome = ReplayOutcome::MissingFile("gone.csv".into());
            r.invocations.clear();
            r
        }];
        let s = stats();
        let file = encode_shard(4, &reports, &s).file;
        let (bytes, fold) = (file.to_bytes(), file.fold());
        let (decoded, ds) = decode_shard(4, &bytes, fold).unwrap();
        assert_eq!(format!("{reports:?}"), format!("{decoded:?}"));
        assert_eq!(s, ds);
        let (skeletons, ds) = walk_shard(4, &bytes, fold, Depth::Skeletons).unwrap();
        assert_eq!(ds, s);
        let counts: Vec<usize> = skeletons.iter().map(|k| k.invocations).collect();
        assert_eq!(counts, vec![8, 0]);
        for (skel, rep) in skeletons.iter().zip(&reports) {
            let bare = ReplayReport { invocations: Vec::new(), ..rep.clone() };
            assert_eq!(format!("{:?}", skel.report), format!("{bare:?}"));
        }
        let (none, ds) = walk_shard(4, &bytes, fold, Depth::Stats).unwrap();
        assert!(none.is_empty());
        assert_eq!(ds, s);
        for depth in DEPTHS {
            assert!(walk_shard(4, &bytes, fold ^ 1, depth).is_err(), "another fold at {depth:?}");
            assert!(walk_shard(5, &bytes, fold, depth).is_err(), "another id at {depth:?}");
        }
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let reports = vec![report()];
        let file = encode_shard(0, &reports, &stats()).file;
        let (mut bytes, fold) = (file.to_bytes(), file.fold());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        for depth in DEPTHS {
            assert!(walk_shard(0, &bytes, fold, depth).is_err(), "{depth:?}");
        }
    }

    /// A shard of `n` one-invocation reports, each on its own distinct
    /// input frame.
    fn distinct_frame_reports(n: usize) -> Vec<ReplayReport> {
        (0..n)
            .map(|k| {
                let mut rep = report();
                rep.notebook_id = format!("nb-join-{k:05}");
                let mut inv = invocation(OpKind::DropNa, all_params()[5].1.clone());
                let rows = (0..k % 7 + 1).map(|r| Value::Int((k * 10 + r) as i64)).collect();
                let frame = DataFrame::new(vec![Column::new(format!("c{k}"), rows)]).unwrap();
                inv.input_hashes = vec![frame.content_hash()];
                inv.inputs = vec![Arc::new(frame)];
                rep.invocations = vec![inv];
                rep
            })
            .collect()
    }

    #[test]
    fn the_pooled_codec_is_the_same_at_any_thread_count() {
        let reports = distinct_frame_reports(80);
        let run = |threads: usize| {
            autosuggest_parallel::set_thread_override(Some(threads));
            let image = encode_shard(3, &reports, &stats());
            let decoded = decode_shard(3, &image.file.to_bytes(), image.file.fold()).unwrap();
            autosuggest_parallel::set_thread_override(None);
            (image, decoded)
        };
        let (one, (one_reports, one_stats)) = run(1);
        let (four, (four_reports, four_stats)) = run(4);
        assert!(one.frames >= 64, "{} distinct frames", one.frames);
        assert!(one.file.to_bytes() == four.file.to_bytes(), "shard bytes depend on the thread count");
        assert_eq!(
            (one.file.fold(), one.frames, one.frame_refs),
            (four.file.fold(), four.frames, four.frame_refs)
        );
        assert_eq!(format!("{one_reports:?}"), format!("{four_reports:?}"));
        assert_eq!(format!("{reports:?}"), format!("{one_reports:?}"));
        assert_eq!((one_stats, four_stats), (stats(), stats()));
    }

    #[test]
    fn store_write_read_and_resume() {
        let root = tmpdir("resume");
        let mut store = SampleStore::open(&root, "corpus-a", 2, 3).unwrap();
        assert!(completed(&store).is_empty());
        store.write_shard(0, &[report()], &stats()).unwrap();
        store.write_shard(2, &[], &RobustnessStats::default()).unwrap();

        // Reopen with the same identity: completed shards survive.
        let store2 = SampleStore::open(&root, "corpus-a", 2, 3).unwrap();
        assert_eq!(completed(&store2), vec![0, 2]);
        let (reports, _) = store2.read_shard(0).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].notebook_id, "nb-join-00001");

        // Reopen with a different corpus id: store resets.
        let store3 = SampleStore::open(&root, "corpus-b", 2, 3).unwrap();
        assert!(completed(&store3).is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_shard_file_is_dropped_on_open() {
        let root = tmpdir("corrupt");
        let mut store = SampleStore::open(&root, "corpus-a", 2, 2).unwrap();
        store.write_shard(0, &[report()], &stats()).unwrap();
        store.write_shard(1, &[], &RobustnessStats::default()).unwrap();
        let shard0 = root.join("shards").join("shard-00000.asg");
        let mut bytes = fs::read(&shard0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&shard0, bytes).unwrap();

        let store2 = SampleStore::open(&root, "corpus-a", 2, 2).unwrap();
        assert_eq!(completed(&store2), vec![1]);
        assert!(!shard0.exists(), "corrupt shard should be deleted");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn shards_whose_structure_is_wrong_are_dropped_on_open() {
        // Every checksum and the manifest fold hold; only the structure is
        // wrong. One header declares two reports where the file holds one;
        // in the other, stats come first and a report declares one
        // invocation that never follows.
        let mut rep = report();
        rep.invocations.truncate(1);
        let bare = ReplayReport { invocations: Vec::new(), ..rep.clone() };
        let cases = [
            (2, vec![(TAG_REPORT, encode_report_skeleton(&bare)), (TAG_STATS, encode_stats(&stats()))]),
            (1, vec![(TAG_STATS, encode_stats(&stats())), (TAG_REPORT, encode_report_skeleton(&rep))]),
        ];
        for (declared, records) in cases {
            let root = tmpdir("malformed");
            let mut store = SampleStore::open(&root, "corpus-a", 1, 2).unwrap();
            store.write_shard(1, &[], &RobustnessStats::default()).unwrap();
            let mut file = RecordFile::new(MAGIC, VERSION);
            let mut header = ByteWriter::default();
            for v in [0, declared, 0] {
                header.put_usize(v);
            }
            file.record(TAG_SHARD_HEADER, &header.into_bytes());
            for (tag, payload) in &records {
                file.record(*tag, payload);
            }
            file.record(TAG_END, &[]);
            for depth in DEPTHS {
                assert!(walk_shard(0, &file.to_bytes(), file.fold(), depth).is_err(), "{depth:?}");
            }
            durable::publish(&store.shard_path(0), file.parts()).unwrap();
            let meta = ShardMeta { file_fnv: file.fold(), notebooks: declared, invocations: 0 };
            store.shards.insert(0, meta);
            store.write_manifest().unwrap();

            let reopened = SampleStore::open(&root, "corpus-a", 1, 2).unwrap();
            assert_eq!(completed(&reopened), vec![1]);
            assert_eq!(reopened.resumed_stats(0), None);
            assert!(!store.shard_path(0).exists(), "malformed shard should be deleted");
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        // A publish killed mid-write leaves `<name>.tmp<pid>-<n>` holding a
        // prefix of the image; whatever its length, open sweeps it and the
        // shard it would have become stays absent.
        let root = tmpdir("tmpsweep");
        let image = encode_shard(0, &[report()], &stats()).file.to_bytes();
        for k in 0..=image.len() {
            fs::create_dir_all(root.join("shards")).unwrap();
            let orphan = root.join("shards").join(format!("shard-00000.tmp12345-{k}"));
            fs::write(&orphan, &image[..k]).unwrap();
            let orphan2 = root.join("manifest.tmp12345-2");
            fs::write(&orphan2, b"partial").unwrap();

            let store = SampleStore::open(&root, "corpus-a", 2, 2).unwrap();
            assert!(!orphan.exists(), "tmp of {k} bytes survived open");
            assert!(!orphan2.exists());
            assert!(completed(&store).is_empty());
            assert!(store.read_shard(0).is_err());
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Every file under a store root (and its `shards/`), by relative name.
    fn store_files(root: &Path) -> BTreeMap<String, Vec<u8>> {
        let mut files = BTreeMap::new();
        for (prefix, dir) in [("", root.to_path_buf()), ("shards/", root.join("shards"))] {
            for entry in fs::read_dir(dir).unwrap() {
                let entry = entry.unwrap();
                if entry.file_type().unwrap().is_file() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    files.insert(format!("{prefix}{name}"), fs::read(entry.path()).unwrap());
                }
            }
        }
        files
    }

    #[test]
    fn every_kill_point_of_write_shard_resumes_to_the_uninterrupted_files() {
        // `write_shard(2, ..)` publishes the shard (tmp write, rename), then
        // publishes the manifest the same way. Build the disk state a kill
        // leaves at each step by hand, reopen, and finish the run.
        let shard_reports = |id: usize| {
            let mut rep = report();
            rep.notebook_id = format!("nb-{id}");
            vec![rep]
        };
        let write = |store: &mut SampleStore, id: usize| {
            store.write_shard(id, &shard_reports(id), &stats()).unwrap();
        };
        let reference_root = tmpdir("killref");
        let mut reference = SampleStore::open(&reference_root, "corpus-a", 1, 3).unwrap();
        for id in 0..3 {
            write(&mut reference, id);
        }
        let want = store_files(&reference_root);
        let shard2 = want["shards/shard-00002.asg"].clone();
        let manifest = want["manifest.json"].clone();

        let (shard2_tmp, shard2_path) = ("shards/shard-00002.tmp4242-7", "shards/shard-00002.asg");
        let kill_states = [
            ("truncated shard tmp", vec![(shard2_tmp, &shard2[..shard2.len() / 2])]),
            ("complete, unrenamed shard tmp", vec![(shard2_tmp, &shard2[..])]),
            ("shard renamed, manifest not rewritten", vec![(shard2_path, &shard2[..])]),
            (
                "truncated manifest tmp",
                vec![
                    (shard2_path, &shard2[..]),
                    ("manifest.tmp4242-8", &manifest[..manifest.len() / 2]),
                ],
            ),
        ];
        for (state, files) in kill_states {
            let root = tmpdir("kill");
            let mut store = SampleStore::open(&root, "corpus-a", 1, 3).unwrap();
            write(&mut store, 0);
            write(&mut store, 1);
            drop(store);
            for (name, bytes) in files {
                fs::write(root.join(name), bytes).unwrap();
            }

            let mut store = SampleStore::open(&root, "corpus-a", 1, 3).unwrap();
            assert_eq!(completed(&store), vec![0, 1], "{state}");
            let tmps: Vec<String> =
                store_files(&root).into_keys().filter(|n| n.contains(".tmp")).collect();
            assert!(tmps.is_empty(), "{state}: open left {tmps:?}");
            write(&mut store, 2);
            assert!(store_files(&root) == want, "{state}: files differ from an uninterrupted run");
            let _ = fs::remove_dir_all(&root);
        }
        let _ = fs::remove_dir_all(&reference_root);
    }

    #[test]
    fn every_truncation_of_a_published_shard_drops_exactly_that_shard() {
        let root = tmpdir("truncate");
        let mut store = SampleStore::open(&root, "corpus-a", 2, 2).unwrap();
        let mut rep = report();
        rep.invocations.truncate(1); // every record kind, fewer lengths to try
        store.write_shard(0, &[rep], &stats()).unwrap();
        store.write_shard(1, &[], &RobustnessStats::default()).unwrap();
        let shard0 = root.join("shards").join("shard-00000.asg");
        let image = fs::read(&shard0).unwrap();
        let manifest = fs::read(root.join("manifest.json")).unwrap();
        for k in 0..image.len() {
            fs::write(&shard0, &image[..k]).unwrap();
            fs::write(root.join("manifest.json"), &manifest).unwrap();
            let reopened = SampleStore::open(&root, "corpus-a", 2, 2).unwrap();
            assert_eq!(completed(&reopened), vec![1], "truncated to {k} bytes");
            assert!(!shard0.exists(), "shard truncated to {k} bytes was not deleted");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn every_flipped_bit_of_a_published_shard_drops_exactly_that_shard() {
        // The manifest checksum is the trailer fold, not a hash of the whole
        // file; with the record checksums it must still catch any change.
        let root = tmpdir("bitflip");
        let mut store = SampleStore::open(&root, "corpus-a", 2, 2).unwrap();
        let mut rep = report();
        rep.invocations.truncate(1); // every record kind, fewer bytes to try
        store.write_shard(0, &[rep], &stats()).unwrap();
        store.write_shard(1, &[], &RobustnessStats::default()).unwrap();
        let fold = store.shard_meta(0).unwrap().file_fnv;
        let shard0 = root.join("shards").join("shard-00000.asg");
        let image = fs::read(&shard0).unwrap();
        let manifest = fs::read(root.join("manifest.json")).unwrap();
        for at in 0..image.len() {
            let mut flipped = image.clone();
            flipped[at] ^= 1 << (at % 8);
            for depth in DEPTHS {
                let walked = walk_shard(0, &flipped, fold, depth);
                assert!(walked.is_err(), "bit flipped at byte {at} walked to {depth:?}");
            }
            fs::write(&shard0, &flipped).unwrap();
            fs::write(root.join("manifest.json"), &manifest).unwrap();
            let reopened = SampleStore::open(&root, "corpus-a", 2, 2).unwrap();
            assert_eq!(completed(&reopened), vec![1], "bit flipped at byte {at}");
            assert!(!shard0.exists(), "shard with a bit flipped at byte {at} was not deleted");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_manifest_of_another_version_resets_the_store() {
        let root = tmpdir("manifestv1");
        let mut store = SampleStore::open(&root, "corpus-a", 1, 2).unwrap();
        store.write_shard(0, &[report()], &stats()).unwrap();
        let path = root.join("manifest.json");
        let manifest = fs::read_to_string(&path).unwrap();
        let current = format!("\"version\":{MANIFEST_VERSION}");
        assert_eq!(manifest.matches(&current).count(), 1, "{manifest}");
        fs::write(&path, manifest.replace(&current, "\"version\":1")).unwrap();
        let reopened = SampleStore::open(&root, "corpus-a", 1, 2).unwrap();
        assert!(completed(&reopened).is_empty());
        assert!(!root.join("shards").join("shard-00000.asg").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn report_iter_streams_in_shard_order() {
        let root = tmpdir("iter");
        let mut store = SampleStore::open(&root, "corpus-a", 1, 3).unwrap();
        for id in [2usize, 0, 1] {
            let mut rep = report();
            rep.notebook_id = format!("nb-{id}");
            rep.invocations.clear();
            store.write_shard(id, &[rep], &RobustnessStats::default()).unwrap();
        }
        let ids: Vec<String> = store
            .reports()
            .map(|r| r.unwrap().notebook_id)
            .collect();
        assert_eq!(ids, vec!["nb-0", "nb-1", "nb-2"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_keeps_the_stats_of_each_verified_shard() {
        let root = tmpdir("stats");
        let mut store = SampleStore::open(&root, "corpus-a", 1, 2).unwrap();
        store.write_shard(0, &[report()], &stats()).unwrap();
        assert_eq!(store.resumed_stats(0), None, "written, not resumed");
        let (reopened, snap) =
            obs::with_local_registry(|| SampleStore::open(&root, "corpus-a", 1, 2).unwrap());
        assert_eq!(reopened.resumed_stats(0), Some(&stats()));
        assert_eq!(reopened.resumed_stats(1), None);
        assert_eq!(snap.counters.get("store.shard_reads"), Some(&1));
        let _ = fs::remove_dir_all(&root);
    }
}

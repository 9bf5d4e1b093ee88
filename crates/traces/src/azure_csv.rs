//! Loader for the real **Azure Public Dataset (V1, 2017)** CSV files.
//!
//! The feasibility analysis and the cluster simulation normally run on the
//! synthetic population from [`crate::azure`], but a downstream user who has
//! downloaded the actual dataset the paper uses
//! (<https://github.com/Azure/AzurePublicDataset>) can load it here and feed
//! it through exactly the same analysis and simulation code. Two files are
//! consumed, both header-less CSV:
//!
//! * `vmtable.csv` — one row per VM:
//!   `vmid, subscriptionid, deploymentid, vmcreated, vmdeleted, maxcpu,
//!    avgcpu, p95maxcpu, vmcategory, vmcorecount, vmmemory`
//!   (timestamps in seconds, category one of `Interactive`,
//!   `Delay-insensitive`, `Unknown`, memory in GiB);
//! * `vm_cpu_readings-*.csv` — 5-minute utilisation readings:
//!   `timestamp, vmid, mincpu, maxcpu, avgcpu` (CPU in percent, 0–100).
//!
//! The loader is hand-rolled (the dataset is plain comma-separated values
//! with no quoting) so it adds no new dependencies.

use crate::azure::AzureVmTrace;
use crate::timeseries::{TimeSeries, DEFAULT_INTERVAL_SECS};
use deflate_core::resources::ResourceVector;
use deflate_core::vm::{VmClass, VmId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::BufRead;

/// One row of `vmtable.csv`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmTableRow {
    /// Opaque VM identifier (a hash in the public dataset).
    pub vm_key: String,
    /// Creation timestamp, seconds.
    pub created_secs: f64,
    /// Deletion timestamp, seconds.
    pub deleted_secs: f64,
    /// Workload-class label.
    pub category: VmClass,
    /// vCPU core count.
    pub core_count: f64,
    /// Memory in GiB.
    pub memory_gib: f64,
}

/// Errors raised while parsing the dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// A row had fewer columns than the schema requires.
    MissingColumns {
        /// 1-based line number.
        line: usize,
        /// Columns found.
        found: usize,
        /// Columns expected.
        expected: usize,
    },
    /// A numeric column failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Column index (0-based).
        column: usize,
        /// Offending text.
        value: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingColumns {
                line,
                found,
                expected,
            } => write!(
                f,
                "line {line}: expected at least {expected} columns, found {found}"
            ),
            CsvError::BadNumber {
                line,
                column,
                value,
            } => write!(
                f,
                "line {line}, column {column}: cannot parse number {value:?}"
            ),
        }
    }
}

impl std::error::Error for CsvError {}

fn parse_f64(field: &str, line: usize, column: usize) -> Result<f64, CsvError> {
    let trimmed = field.trim();
    if trimmed.is_empty() {
        return Ok(0.0);
    }
    // `str::parse` also accepts `NaN`, `inf` and overflowing literals
    // such as `1e400`; none of them is a usable time or size.
    match trimmed.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(value),
        _ => Err(CsvError::BadNumber {
            line,
            column,
            value: field.to_string(),
        }),
    }
}

fn parse_category(field: &str) -> VmClass {
    match field.trim().to_ascii_lowercase().as_str() {
        "interactive" => VmClass::Interactive,
        "delay-insensitive" | "delayinsensitive" => VmClass::DelayInsensitive,
        _ => VmClass::Unknown,
    }
}

/// Parse `vmtable.csv` content.
pub fn parse_vmtable<R: BufRead>(reader: R) -> Result<Vec<VmTableRow>, CsvError> {
    let mut rows = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.unwrap_or_default();
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = trimmed.split(',').collect();
        if cols.len() < 11 {
            return Err(CsvError::MissingColumns {
                line: line_no,
                found: cols.len(),
                expected: 11,
            });
        }
        rows.push(VmTableRow {
            vm_key: cols[0].trim().to_string(),
            created_secs: parse_f64(cols[3], line_no, 3)?,
            deleted_secs: parse_f64(cols[4], line_no, 4)?,
            category: parse_category(cols[8]),
            core_count: parse_f64(cols[9], line_no, 9)?,
            memory_gib: parse_f64(cols[10], line_no, 10)?,
        });
    }
    Ok(rows)
}

/// One reading of `vm_cpu_readings-*.csv`: `(timestamp, vm key, max CPU %)`.
pub type CpuReading = (f64, String, f64);

/// Parse a `vm_cpu_readings` file, keeping the per-interval *maximum* CPU
/// utilisation (the paper's feasibility metric uses the maximum usage over
/// each interval).
pub fn parse_cpu_readings<R: BufRead>(reader: R) -> Result<Vec<CpuReading>, CsvError> {
    let mut rows = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.unwrap_or_default();
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = trimmed.split(',').collect();
        if cols.len() < 4 {
            return Err(CsvError::MissingColumns {
                line: line_no,
                found: cols.len(),
                expected: 4,
            });
        }
        let timestamp = parse_f64(cols[0], line_no, 0)?;
        let max_cpu = parse_f64(cols[3], line_no, 3)?;
        rows.push((timestamp, cols[1].trim().to_string(), max_cpu));
    }
    Ok(rows)
}

/// Assemble [`AzureVmTrace`]s from a parsed VM table and CPU readings.
///
/// * VM keys are mapped to dense numeric [`VmId`]s in table order.
/// * Readings are bucketed into the VM's lifetime at 5-minute granularity and
///   normalised from percent to `[0, 1]`; missing intervals are filled with
///   the previous reading (or zero before the first one).
/// * VMs without any readings get an all-zero utilisation series, mirroring
///   how idle VMs appear in the dataset.
pub fn build_traces(vmtable: &[VmTableRow], readings: &[CpuReading]) -> Vec<AzureVmTrace> {
    let key_to_index: HashMap<&str, usize> = vmtable
        .iter()
        .enumerate()
        .map(|(i, row)| (row.vm_key.as_str(), i))
        .collect();
    // Group readings per VM.
    let mut per_vm: Vec<Vec<(f64, f64)>> = vec![Vec::new(); vmtable.len()];
    for (timestamp, key, max_cpu) in readings {
        if let Some(&i) = key_to_index.get(key.as_str()) {
            per_vm[i].push((*timestamp, (max_cpu / 100.0).clamp(0.0, 1.0)));
        }
    }
    vmtable
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let lifetime = (row.deleted_secs - row.created_secs).max(DEFAULT_INTERVAL_SECS);
            let samples_len = (lifetime / DEFAULT_INTERVAL_SECS).ceil() as usize;
            let mut samples = vec![0.0f64; samples_len.max(1)];
            let mut readings = std::mem::take(&mut per_vm[i]);
            readings.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut last = 0.0;
            let mut cursor = 0usize;
            for (k, slot) in samples.iter_mut().enumerate() {
                let slot_time = row.created_secs + k as f64 * DEFAULT_INTERVAL_SECS;
                while cursor < readings.len() && readings[cursor].0 <= slot_time + 1e-9 {
                    last = readings[cursor].1;
                    cursor += 1;
                }
                *slot = last;
            }
            AzureVmTrace {
                vm_id: VmId(i as u64),
                class: row.category,
                size: ResourceVector::new(
                    row.core_count.max(1.0) * 1000.0,
                    row.memory_gib.max(0.5) * 1024.0,
                    100.0,
                    1000.0,
                ),
                start_secs: row.created_secs,
                lifetime_secs: lifetime,
                cpu_util: TimeSeries::five_minute(samples),
            }
        })
        .collect()
}

/// Convenience wrapper: parse both files and build the traces in one call.
pub fn load_from_strings(
    vmtable_csv: &str,
    readings_csv: &str,
) -> Result<Vec<AzureVmTrace>, CsvError> {
    let vmtable = parse_vmtable(vmtable_csv.as_bytes())?;
    let readings = parse_cpu_readings(readings_csv.as_bytes())?;
    Ok(build_traces(&vmtable, &readings))
}

#[cfg(test)]
mod tests {
    use super::*;

    const VMTABLE: &str = "\
vmA,sub1,dep1,0,3600,95.0,20.0,80.0,Interactive,4,8.0
vmB,sub1,dep2,300,7500,50.0,10.0,30.0,Delay-insensitive,2,3.5
vmC,sub2,dep3,0,1800,5.0,1.0,2.0,Unknown,1,1.75
";

    const READINGS: &str = "\
0,vmA,1.0,40.0,20.0
300,vmA,2.0,60.0,30.0
600,vmA,1.0,90.0,45.0
300,vmB,0.0,10.0,5.0
3900,vmB,0.0,25.0,12.0
0,vmZ,0.0,99.0,50.0
";

    #[test]
    fn parses_vmtable_rows() {
        let rows = parse_vmtable(VMTABLE.as_bytes()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].category, VmClass::Interactive);
        assert_eq!(rows[1].category, VmClass::DelayInsensitive);
        assert_eq!(rows[2].category, VmClass::Unknown);
        assert_eq!(rows[0].core_count, 4.0);
        assert!((rows[1].memory_gib - 3.5).abs() < 1e-12);
        assert_eq!(rows[0].deleted_secs, 3600.0);
    }

    #[test]
    fn rejects_malformed_rows() {
        let err = parse_vmtable("a,b,c\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::MissingColumns { expected: 11, .. }));
        let err =
            parse_vmtable("vmA,s,d,zero,3600,95,20,80,Interactive,4,8\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::BadNumber { column: 3, .. }));
        assert!(err.to_string().contains("column 3"));
        // Non-finite numbers are rejected too, before they reach the
        // trace builder: an infinite deletion time would size an
        // unbounded sample vector, a NaN creation time a NaN event time.
        for (row, column) in [
            ("vmA,s,d,0,inf,95,20,80,Interactive,4,8\n", 4),
            ("vmA,s,d,NaN,3600,95,20,80,Interactive,4,8\n", 3),
            ("vmA,s,d,0,1e400,95,20,80,Interactive,4,8\n", 4),
        ] {
            let err = load_from_strings(row, READINGS).unwrap_err();
            assert!(
                matches!(err, CsvError::BadNumber { column: c, .. } if c == column),
                "{row:?} gave {err:?}"
            );
        }
        // Blank lines and comments are skipped.
        assert!(parse_vmtable("\n# comment\n".as_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parses_readings_and_builds_traces() {
        let traces = load_from_strings(VMTABLE, READINGS).unwrap();
        assert_eq!(traces.len(), 3);
        let a = &traces[0];
        assert_eq!(a.class, VmClass::Interactive);
        assert_eq!(a.size.cpu(), 4000.0);
        // One hour of 5-minute samples; readings are normalised from
        // percent and placed at the right slots.
        assert_eq!(a.cpu_util.len(), 12);
        assert!((a.cpu_util.samples()[0] - 0.40).abs() < 1e-12);
        assert!((a.cpu_util.samples()[1] - 0.60).abs() < 1e-12);
        assert!((a.cpu_util.samples()[2] - 0.90).abs() < 1e-12);
        // Gaps carry the last reading forward.
        assert!((a.cpu_util.samples()[5] - 0.90).abs() < 1e-12);
        // VM C has no readings: all-zero series, still present.
        assert!(traces[2].cpu_util.samples().iter().all(|&s| s == 0.0));
        // Unknown VM keys in the readings file are ignored.
    }

    #[test]
    fn built_traces_work_with_the_analysis_pipeline() {
        let traces = load_from_strings(VMTABLE, READINGS).unwrap();
        let points = crate::analysis::cpu_feasibility(&traces, &[0.5]);
        assert_eq!(points.len(), 1);
        assert!(points[0].distribution.max <= 1.0);
        // The interactive VM (p95 = 90 %) is deflation-sensitive; priorities
        // derive correctly from the loaded series.
        assert!(traces[0].p95_cpu() > 0.8);
        assert!(traces[0].deflatable());
        assert!(!traces[1].deflatable());
    }
}

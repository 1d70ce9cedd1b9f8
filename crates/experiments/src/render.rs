//! Rendering and artifact export: text, markdown and JSON.

use kc_core::{CouplingTable, PredictionTable};
use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Everything one experiment produced, in exportable form.
#[derive(Clone, Debug, Serialize)]
pub struct Artifact {
    /// Artifact name (e.g. `table4_bt_a`), the stem of its files.
    pub id: String,
    /// Coupling-value tables.
    pub couplings: Vec<CouplingTable>,
    /// Execution-time comparison tables.
    pub predictions: Vec<PredictionTable>,
}

impl Artifact {
    /// Pretty text rendering of everything in the artifact.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for t in &self.couplings {
            s.push_str(&t.to_string());
            s.push('\n');
        }
        for t in &self.predictions {
            s.push_str(&t.to_string());
            s.push('\n');
        }
        s
    }

    /// JSON rendering.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("tables are serializable")
    }

    /// CSV rendering: one block per table, rows = table rows, columns
    /// = configuration columns — the series a plotting tool wants.
    pub fn render_csv(&self) -> String {
        let mut s = String::new();
        let esc = |v: &str| {
            if v.contains(',') || v.contains('"') {
                format!("\"{}\"", v.replace('"', "\"\""))
            } else {
                v.to_string()
            }
        };
        for t in &self.couplings {
            s.push_str(&format!("# {}\n", t.title));
            s.push_str(&format!(
                "series,{}\n",
                t.columns
                    .iter()
                    .map(|c| esc(c))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            for r in &t.rows {
                s.push_str(&esc(&r.label));
                for v in &r.values {
                    s.push_str(&format!(",{v}"));
                }
                s.push('\n');
            }
            s.push('\n');
        }
        for t in &self.predictions {
            s.push_str(&format!("# {}\n", t.title));
            s.push_str(&format!(
                "series,{}\n",
                t.columns
                    .iter()
                    .map(|c| esc(c))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            for r in &t.rows {
                s.push_str(&esc(&r.label));
                for c in &r.cells {
                    s.push_str(&format!(",{}", c.time));
                }
                s.push('\n');
            }
            s.push('\n');
        }
        s
    }

    /// Write `<dir>/<id>.txt`, `<dir>/<id>.json` and `<dir>/<id>.csv`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut txt = std::fs::File::create(dir.join(format!("{}.txt", self.id)))?;
        txt.write_all(self.render_text().as_bytes())?;
        let mut json = std::fs::File::create(dir.join(format!("{}.json", self.id)))?;
        json.write_all(self.render_json().as_bytes())?;
        let mut csv = std::fs::File::create(dir.join(format!("{}.csv", self.id)))?;
        csv.write_all(self.render_csv().as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_core::CouplingRow;

    fn sample() -> Artifact {
        Artifact {
            id: "demo".into(),
            couplings: vec![CouplingTable {
                title: "T".into(),
                columns: vec!["4 procs".into()],
                rows: vec![CouplingRow {
                    label: "{a, b}".into(),
                    values: vec![0.9],
                }],
            }],
            predictions: Vec::new(),
        }
    }

    #[test]
    fn json_is_parseable_and_contains_values() {
        let j = sample().render_json();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["id"], "demo");
        assert_eq!(v["couplings"][0]["rows"][0]["values"][0], 0.9);
    }

    #[test]
    fn writes_artifacts_to_disk() {
        let dir = std::env::temp_dir().join(format!("kc_render_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sample().write_to(&dir).unwrap();
        assert!(dir.join("demo.txt").exists());
        assert!(dir.join("demo.json").exists());
        assert!(dir.join("demo.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_has_header_and_values() {
        let csv = sample().render_csv();
        assert!(csv.contains("series,4 procs"));
        assert!(csv.contains("\"{a, b}\",0.9"));
    }
}

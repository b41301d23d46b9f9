//! Structured experiment output: each paper figure/table becomes a
//! [`FigureResult`] that can be rendered as an aligned text table.

use std::fmt;

/// One plotted series: a label and a value per x-position.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. a scheme name).
    pub label: String,
    /// One value per x-position, aligned with [`FigureResult::xs`].
    pub values: Vec<f64>,
}

/// The regenerated data behind one figure or table of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig9"`.
    pub id: String,
    /// Human title, e.g. `"Normalized execution cycles, all schemes"`.
    pub title: String,
    /// Unit/meaning of the values (e.g. `"normalized cycles"`).
    pub unit: String,
    /// X-axis positions (applications, window sizes, probabilities, …).
    pub xs: Vec<String>,
    /// The series, each holding one value per x.
    pub series: Vec<Series>,
    /// Free-form notes (scale caveats, paper-expected shape).
    pub notes: String,
}

impl FigureResult {
    /// The value of series `label` at x-position `x`, if present.
    pub fn value(&self, label: &str, x: &str) -> Option<f64> {
        let xi = self.xs.iter().position(|v| v == x)?;
        let s = self.series.iter().find(|s| s.label == label)?;
        s.values.get(xi).copied()
    }

    /// Arithmetic mean of one series across all x-positions.
    pub fn series_mean(&self, label: &str) -> Option<f64> {
        let s = self.series.iter().find(|s| s.label == label)?;
        if s.values.is_empty() {
            return None;
        }
        Some(s.values.iter().sum::<f64>() / s.values.len() as f64)
    }

    /// Validates internal consistency (every series matches the x-axis).
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.series {
            if s.values.len() != self.xs.len() {
                return Err(format!(
                    "series {:?} has {} values for {} x positions",
                    s.label,
                    s.values.len(),
                    self.xs.len()
                ));
            }
        }
        Ok(())
    }
}

impl FigureResult {
    /// Serialises the figure as a compact JSON object through
    /// [`Value::to_json`](crate::json::Value::to_json) (the workspace
    /// deliberately carries no JSON dependency). Strings are escaped per
    /// RFC 8259; non-finite values become `null`.
    pub fn to_json(&self) -> String {
        use crate::json::{arr, number, obj, text};
        let series = self.series.iter().map(|s| {
            obj([
                ("label", text(&s.label)),
                ("values", arr(s.values.iter().map(|&v| number(v)))),
            ])
        });
        obj([
            ("id", text(&self.id)),
            ("title", text(&self.title)),
            ("unit", text(&self.unit)),
            ("xs", arr(self.xs.iter().map(|x| text(x)))),
            ("series", arr(series)),
            ("notes", text(&self.notes)),
        ])
        .to_json()
    }
}

impl FigureResult {
    /// Renders each series as a unicode sparkline (▁▂▃▄▅▆▇█), scaled to
    /// the figure's global min/max — a quick visual of the shape in any
    /// terminal.
    pub fn sparklines(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let all: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.values.iter().copied())
            .filter(|v| v.is_finite())
            .collect();
        let (min, max) = all
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let span = (max - min).max(f64::MIN_POSITIVE);
        let width = self.series.iter().map(|s| s.label.len()).max().unwrap_or(0);
        let mut out = String::new();
        for s in &self.series {
            let line: String = s
                .values
                .iter()
                .map(|&v| {
                    if !v.is_finite() {
                        '·'
                    } else {
                        let t = ((v - min) / span * 7.0).round() as usize;
                        BARS[t.min(7)]
                    }
                })
                .collect();
            out.push_str(&format!("{:<width$}  {line}\n", s.label));
        }
        out
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} [{}] ==", self.id, self.title, self.unit)?;
        // Column widths.
        let xw = self
            .xs
            .iter()
            .map(|x| x.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4);
        let sw: Vec<usize> = self.series.iter().map(|s| s.label.len().max(10)).collect();
        write!(f, "{:<xw$}", "x")?;
        for (s, w) in self.series.iter().zip(&sw) {
            write!(f, "  {:>w$}", s.label, w = w)?;
        }
        writeln!(f)?;
        for (i, x) in self.xs.iter().enumerate() {
            write!(f, "{x:<xw$}")?;
            for (s, w) in self.series.iter().zip(&sw) {
                match s.values.get(i) {
                    Some(v) => write!(f, "  {:>w$.4}", v, w = w)?,
                    None => write!(f, "  {:>w$}", "-", w = w)?,
                }
            }
            writeln!(f)?;
        }
        if !self.notes.is_empty() {
            writeln!(f, "note: {}", self.notes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        FigureResult {
            id: "figX".into(),
            title: "Sample".into(),
            unit: "ratio".into(),
            xs: vec!["gzip".into(), "vpr".into()],
            series: vec![
                Series {
                    label: "A".into(),
                    values: vec![1.0, 2.0],
                },
                Series {
                    label: "B".into(),
                    values: vec![3.0, 4.0],
                },
            ],
            notes: String::new(),
        }
    }

    #[test]
    fn value_lookup_by_label_and_x() {
        let r = sample();
        assert_eq!(r.value("A", "vpr"), Some(2.0));
        assert_eq!(r.value("B", "gzip"), Some(3.0));
        assert_eq!(r.value("C", "gzip"), None);
        assert_eq!(r.value("A", "mcf"), None);
    }

    #[test]
    fn series_mean_averages() {
        assert_eq!(sample().series_mean("A"), Some(1.5));
    }

    #[test]
    fn validate_catches_ragged_series() {
        let mut r = sample();
        r.series[0].values.pop();
        assert!(r.validate().is_err());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn display_renders_all_cells() {
        let text = sample().to_string();
        assert!(text.contains("figX"));
        assert!(text.contains("gzip"));
        assert!(text.contains("4.0000"));
    }

    #[test]
    fn sparklines_render_one_row_per_series() {
        let text = sample().sparklines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('A'));
        assert!(lines[0].contains('▁'), "min maps to the lowest bar");
        assert!(lines[1].contains('█'), "max maps to the highest bar");
    }

    #[test]
    fn sparklines_handle_non_finite_values() {
        let mut r = sample();
        r.series[0].values[0] = f64::NAN;
        assert!(r.sparklines().contains('·'));
    }

    #[test]
    fn json_roundtrips_structure() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"id\":\"figX\""));
        assert!(j.contains("\"xs\":[\"gzip\",\"vpr\"]"));
        assert!(j.contains("\"values\":[1,2]"));
        assert!(j.contains("\"values\":[3,4]"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = sample();
        r.title = "a \"quoted\"\nline\\path".into();
        let j = r.to_json();
        assert!(j.contains(r#""title":"a \"quoted\"\nline\\path""#));
    }

    #[test]
    fn json_maps_non_finite_to_null() {
        let mut r = sample();
        r.series[0].values[0] = f64::NAN;
        assert!(r.to_json().contains("[null,2]"));
    }
}

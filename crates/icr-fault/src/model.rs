//! The four transient-error models of Kim & Somani that the paper
//! evaluates (§5.5).

/// How one fault event manifests in the SRAM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorModel {
    /// One particle strike flips a single data bit of a random word.
    Direct,
    /// One strike upsets two *adjacent* data bits of the same word —
    /// exactly the multi-bit pattern byte-parity can miss and SEC-DED can
    /// only detect.
    Adjacent,
    /// A column disturbance flips the same bit position in two adjacent
    /// words of a line.
    Column,
    /// A strike anywhere in the array: a single random bit of a random
    /// word, including the check-bit storage. This is the model the
    /// paper's Figure 14 reports.
    Random,
}

impl ErrorModel {
    /// All four models, in the paper's order.
    pub fn all() -> [ErrorModel; 4] {
        [
            ErrorModel::Direct,
            ErrorModel::Adjacent,
            ErrorModel::Column,
            ErrorModel::Random,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorModel::Direct => "direct",
            ErrorModel::Adjacent => "adjacent",
            ErrorModel::Column => "column",
            ErrorModel::Random => "random",
        }
    }
}

impl std::str::FromStr for ErrorModel {
    type Err = String;

    /// Parses a model's [`name`](ErrorModel::name).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ErrorModel::all()
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown model {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_models_with_unique_names() {
        let names: std::collections::HashSet<_> =
            ErrorModel::all().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn names_parse_back_to_their_model() {
        for m in ErrorModel::all() {
            assert_eq!(m.name().parse(), Ok(m));
        }
        assert_eq!(
            "burst".parse::<ErrorModel>(),
            Err("unknown model \"burst\"".to_string())
        );
    }
}

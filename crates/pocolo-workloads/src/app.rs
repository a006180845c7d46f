//! Application identities for the paper's eight evaluation workloads.

use std::fmt;

/// The four latency-critical primary applications (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LcApp {
    /// `img-dnn` — DNN image inference on MNIST (TailBench).
    ImgDnn,
    /// `sphinx` — HMM continuous speech recognition on AN4 (TailBench).
    Sphinx,
    /// `xapian` — web-search leaf node over an English Wikipedia index
    /// (TailBench).
    Xapian,
    /// `TPC-C` — OLTP against a MySQL backend.
    TpcC,
}

impl LcApp {
    /// All four LC apps in the paper's column order.
    pub const ALL: [LcApp; 4] = [LcApp::ImgDnn, LcApp::Sphinx, LcApp::Xapian, LcApp::TpcC];

    /// The application's short name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            LcApp::ImgDnn => "img-dnn",
            LcApp::Sphinx => "sphinx",
            LcApp::Xapian => "xapian",
            LcApp::TpcC => "tpcc",
        }
    }
}

impl fmt::Display for LcApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The four best-effort secondary applications (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeApp {
    /// Keras LSTM training for IMDB sentiment classification.
    Lstm,
    /// Keras RNN training (learning addition).
    Rnn,
    /// PageRank over the Twitter graph (CloudSuite-style analytics).
    Graph,
    /// `pbzip2` parallel compression.
    Pbzip,
}

impl BeApp {
    /// All four BE apps in the paper's order.
    pub const ALL: [BeApp; 4] = [BeApp::Lstm, BeApp::Rnn, BeApp::Graph, BeApp::Pbzip];

    /// The application's short name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            BeApp::Lstm => "lstm",
            BeApp::Rnn => "rnn",
            BeApp::Graph => "graph",
            BeApp::Pbzip => "pbzip",
        }
    }
}

impl fmt::Display for BeApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Either kind of application — useful for telemetry keys and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// A latency-critical primary.
    Lc(LcApp),
    /// A best-effort secondary.
    Be(BeApp),
}

impl AppId {
    /// The application's short name.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Lc(a) => a.name(),
            AppId::Be(a) => a.name(),
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<LcApp> for AppId {
    fn from(a: LcApp) -> AppId {
        AppId::Lc(a)
    }
}

impl From<BeApp> for AppId {
    fn from(a: BeApp) -> AppId {
        AppId::Be(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(LcApp::ImgDnn.name(), "img-dnn");
        assert_eq!(LcApp::Sphinx.to_string(), "sphinx");
        assert_eq!(BeApp::Pbzip.name(), "pbzip");
        assert_eq!(AppId::from(BeApp::Graph).to_string(), "graph");
    }

    #[test]
    fn all_arrays_cover_each_variant() {
        assert_eq!(LcApp::ALL.len(), 4);
        assert_eq!(BeApp::ALL.len(), 4);
        let mut names: Vec<&str> = LcApp::ALL.iter().map(|a| a.name()).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn appid_classification() {
        assert_eq!(AppId::from(LcApp::TpcC), AppId::Lc(LcApp::TpcC));
    }
}

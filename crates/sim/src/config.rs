//! Simulation configuration and the `MILLIPEDE_*` environment knobs.
//!
//! Boolean knobs all parse through [`env_flag`] with one rule: unset means
//! "use the default", and an empty string or `0` means off — so
//! `MILLIPEDE_FASTFORWARD= cmd` and `MILLIPEDE_FASTFORWARD=0 cmd` agree
//! instead of an empty value silently counting as "on".

use millipede_dram::{DramGeometry, DramTiming};
use millipede_energy::EnergyParams;
use millipede_telemetry::TelemetryConfig;

/// Parameters of one simulated comparison point.
///
/// Everything the paper holds constant across architectures lives here so
/// the experiments cannot accidentally compare apples to oranges.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Input size in chunks (each chunk = one row of records per field;
    /// 512 records with 2 KB rows). The paper uses 128 MB inputs and argues
    /// steady state is reached long before that (§V); our default reaches
    /// steady state in a few dozen chunks.
    pub num_chunks: usize,
    /// Dataset generator seed.
    pub seed: u64,
    /// DRAM row bytes (Table III: 2048).
    pub row_bytes: u64,
    /// Corelets / lanes / cores per processor (Table III: 32; Fig. 6
    /// doubles it).
    pub corelets: usize,
    /// Hardware contexts per corelet (Table III: 4).
    pub contexts: usize,
    /// Memory-bandwidth multiplier (Fig. 6 doubles bandwidth with cores).
    pub bandwidth_factor: u32,
    /// Millipede / VWS-row prefetch-buffer entries (Table III: 16; Fig. 7
    /// sweeps it).
    pub pbuf_entries: usize,
    /// Energy-model constants.
    pub energy: EnergyParams,
    /// Idle-cycle fast-forward in every event-driven timing model
    /// (bit-exact; see DESIGN.md). Defaults from `MILLIPEDE_FASTFORWARD`
    /// (unset → on, empty or `0` → off), so CI can difference the two
    /// schedules without code changes.
    pub fast_forward: bool,
    /// Cycle-domain telemetry for every model (off by default; defaults
    /// from `MILLIPEDE_TELEMETRY`, unset, empty, or `0` → off).
    /// Observational only: determinism digests are bit-identical on or
    /// off.
    pub telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_chunks: 48,
            seed: 42,
            row_bytes: 2048,
            corelets: 32,
            contexts: 4,
            bandwidth_factor: 1,
            pbuf_entries: 16,
            energy: EnergyParams::default(),
            fast_forward: fast_forward_from_env(),
            telemetry: TelemetryConfig::from_env(),
        }
    }
}

/// Reads one boolean `MILLIPEDE_*` environment knob.
///
/// The single rule every boolean knob follows: unset → `None` (the caller
/// supplies its default), empty or `0` → `Some(false)`, anything else →
/// `Some(true)`.
pub fn env_flag(name: &str) -> Option<bool> {
    std::env::var(name).ok().map(|v| !v.is_empty() && v != "0")
}

/// Reads the `MILLIPEDE_FASTFORWARD` environment switch: unset defaults to
/// on; empty or `0` disables fast-forward; anything else enables it.
pub fn fast_forward_from_env() -> bool {
    env_flag("MILLIPEDE_FASTFORWARD").unwrap_or(true)
}

/// Why a [`SimConfig`] cannot be simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_chunks` is zero: there is no input to run.
    NoChunks,
    /// A prefetch buffer needs at least two entries (one filling while
    /// another drains); carries the requested count.
    TooFewPbufEntries(usize),
    /// Every corelet owns an equal slab of each row, so the corelet count
    /// must be positive and divide the row's 4-byte words.
    CoreletsSplitRow {
        /// Requested corelets per processor.
        corelets: usize,
        /// 4-byte words per DRAM row.
        row_words: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoChunks => write!(f, "the input needs at least one chunk"),
            ConfigError::TooFewPbufEntries(n) => {
                write!(f, "the prefetch buffer needs at least 2 entries, not {n}")
            }
            ConfigError::CoreletsSplitRow {
                corelets,
                row_words,
            } => write!(
                f,
                "{corelets} corelets cannot split a {row_words}-word row into equal slabs"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Checks the geometry every architecture relies on: at least one
    /// chunk of input, a prefetch buffer of at least two entries, and a
    /// corelet count that splits a row into equal slabs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_chunks == 0 {
            return Err(ConfigError::NoChunks);
        }
        if self.pbuf_entries < 2 {
            return Err(ConfigError::TooFewPbufEntries(self.pbuf_entries));
        }
        let row_words = self.row_bytes / 4;
        if self.corelets == 0 || !row_words.is_multiple_of(self.corelets as u64) {
            return Err(ConfigError::CoreletsSplitRow {
                corelets: self.corelets,
                row_words,
            });
        }
        Ok(())
    }

    /// The DRAM geometry shared by every architecture.
    pub fn geometry(&self) -> DramGeometry {
        DramGeometry {
            row_bytes: self.row_bytes,
            ..DramGeometry::default()
        }
    }

    /// The DRAM timing shared by every architecture (with the Fig. 6
    /// bandwidth factor applied).
    pub fn timing(&self) -> DramTiming {
        DramTiming::default().scale_bandwidth(self.bandwidth_factor)
    }

    /// Records in the dataset for a given record arity.
    pub fn records(&self) -> usize {
        self.num_chunks * (self.row_bytes / 4) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.corelets, 32);
        assert_eq!(c.contexts, 4);
        assert_eq!(c.pbuf_entries, 16);
        assert_eq!(c.row_bytes, 2048);
        assert_eq!(c.records(), 48 * 512);
    }

    #[test]
    fn validate_rejects_each_bad_geometry() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        let bad = |f: fn(&mut SimConfig)| {
            let mut c = SimConfig::default();
            f(&mut c);
            c.validate()
        };
        assert_eq!(bad(|c| c.num_chunks = 0), Err(ConfigError::NoChunks));
        assert_eq!(
            bad(|c| c.pbuf_entries = 1),
            Err(ConfigError::TooFewPbufEntries(1))
        );
        for corelets in [0, 3, 100_000] {
            let c = SimConfig {
                corelets,
                ..SimConfig::default()
            };
            assert_eq!(
                c.validate(),
                Err(ConfigError::CoreletsSplitRow {
                    corelets,
                    row_words: 512
                })
            );
        }
        assert_eq!(bad(|c| c.corelets = 64), Ok(()));
    }

    #[test]
    fn bandwidth_factor_scales_timing() {
        let c = SimConfig {
            bandwidth_factor: 2,
            ..Default::default()
        };
        assert_eq!(c.timing().width_bits, 2 * DramTiming::default().width_bits);
    }
}

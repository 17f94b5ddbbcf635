//! Compression configuration: rank selection and group count.

use imc_tensor::ConvShape;

use crate::{Error, Result};

/// How the per-layer rank `k` is chosen.
///
/// The paper configures "the rank of each layer uniformly to the number of
/// output channels `m` divided by a constant factor, in this case 2, 4, 8 and
/// 16" — that is [`RankSpec::Divisor`]. An absolute rank is also supported
/// for ablations and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankSpec {
    /// `k = max(1, m / divisor)` where `m` is the layer's output-channel
    /// count.
    Divisor(usize),
    /// A fixed rank used for every layer (clamped to the layer's maximum).
    Absolute(usize),
}

impl RankSpec {
    /// Resolves the rank for a layer with `out_channels` output channels and
    /// a maximum admissible rank of `max_rank`.
    pub fn resolve(&self, out_channels: usize, max_rank: usize) -> usize {
        let raw = match *self {
            RankSpec::Divisor(d) => out_channels / d.max(1),
            RankSpec::Absolute(k) => k,
        };
        raw.clamp(1, max_rank.max(1))
    }

    /// The four divisor settings swept in the paper's Table I.
    pub fn paper_divisors() -> [Self; 4] {
        [
            RankSpec::Divisor(2),
            RankSpec::Divisor(4),
            RankSpec::Divisor(8),
            RankSpec::Divisor(16),
        ]
    }
}

impl core::fmt::Display for RankSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RankSpec::Divisor(d) => write!(f, "m/{d}"),
            RankSpec::Absolute(k) => write!(f, "k={k}"),
        }
    }
}

/// A full compression configuration: rank, group count and whether the
/// SDK-aware mapping is used for the factor stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompressionConfig {
    /// How the rank is chosen per layer.
    pub rank: RankSpec,
    /// Number of groups `g` of the group low-rank decomposition (`1` recovers
    /// the traditional decomposition).
    pub groups: usize,
    /// Whether the factors are mapped with SDK (`true`) or plain im2col
    /// (`false`).
    pub use_sdk: bool,
}

impl CompressionConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `groups` is zero or the rank
    /// specification is degenerate (zero divisor / zero absolute rank).
    pub fn new(rank: RankSpec, groups: usize, use_sdk: bool) -> Result<Self> {
        let config = Self {
            rank,
            groups,
            use_sdk,
        };
        config.validate()?;
        Ok(config)
    }

    /// The one validity rule of a configuration, shared by
    /// [`CompressionConfig::new`] and [`CompressionConfig::resolve`]: the
    /// fields are public, so a struct literal can skip `new`.
    fn validate(&self) -> Result<()> {
        let what = match (self.groups, self.rank) {
            (0, _) => "group count must be at least 1",
            (_, RankSpec::Divisor(0)) => "rank divisor must be at least 1",
            (_, RankSpec::Absolute(0)) => "absolute rank must be at least 1",
            _ => return Ok(()),
        };
        Err(Error::InvalidConfig {
            what: what.to_owned(),
        })
    }

    /// The traditional low-rank baseline of Fig. 9: no grouping, no SDK.
    pub fn traditional(rank: RankSpec) -> Self {
        Self {
            rank,
            groups: 1,
            use_sdk: false,
        }
    }

    /// The full grid of Table I: groups {1, 2, 4, 8} × divisors
    /// {2, 4, 8, 16}, for a given SDK setting.
    pub fn table1_grid(use_sdk: bool) -> Vec<Self> {
        let mut out = Vec::new();
        for groups in [1usize, 2, 4, 8] {
            for rank in RankSpec::paper_divisors() {
                out.push(Self {
                    rank,
                    groups,
                    use_sdk,
                });
            }
        }
        out
    }

    /// Resolves this configuration on one layer into `(groups, rank)`: the
    /// group count is clamped to the layer's `n = IC·K_h·K_w`, and the rank
    /// to the largest a group block admits, `min(m, n / groups)`. Every path
    /// that compresses a layer resolves it here.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a configuration
    /// [`CompressionConfig::new`] would refuse (a zero group count, divisor
    /// or absolute rank).
    pub fn resolve(&self, shape: &ConvShape) -> Result<(usize, usize)> {
        self.validate()?;
        let n = shape.im2col_rows();
        let groups = self.groups.min(n);
        let max_rank = shape.out_channels.min(n / groups).max(1);
        Ok((groups, self.rank.resolve(shape.out_channels, max_rank)))
    }

    /// A short human-readable label, e.g. `"g=4, k=m/8, SDK"`.
    pub fn label(&self) -> String {
        format!(
            "g={}, k={}{}",
            self.groups,
            self.rank,
            if self.use_sdk { ", SDK" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisor_rank_resolution() {
        assert_eq!(RankSpec::Divisor(4).resolve(64, 64), 16);
        assert_eq!(RankSpec::Divisor(16).resolve(16, 16), 1);
        // Clamped to the layer's maximum rank.
        assert_eq!(RankSpec::Divisor(2).resolve(64, 27), 27);
        // Never below 1.
        assert_eq!(RankSpec::Divisor(100).resolve(16, 16), 1);
    }

    #[test]
    fn absolute_rank_resolution() {
        assert_eq!(RankSpec::Absolute(5).resolve(64, 64), 5);
        assert_eq!(RankSpec::Absolute(100).resolve(64, 32), 32);
    }

    #[test]
    fn layer_resolution_clamps_groups_then_rank() {
        let config = |groups, rank| CompressionConfig {
            rank,
            groups,
            use_sdk: false,
        };
        // m = 64 output channels, n = 16·3·3 = 144.
        let shape = ConvShape::new(16, 64, 3, 3, 1, 1, 8, 8).unwrap();
        assert_eq!(
            config(4, RankSpec::Divisor(4)).resolve(&shape).unwrap(),
            (4, 16)
        );
        // A group block of 144/8 = 18 columns admits rank 18 at most.
        assert_eq!(
            config(8, RankSpec::Divisor(2)).resolve(&shape).unwrap(),
            (8, 18)
        );
        // n = 1·1·1 = 1: one group of one column, rank 1.
        let thin = ConvShape::new(1, 64, 1, 1, 1, 0, 8, 8).unwrap();
        assert_eq!(
            config(4, RankSpec::Absolute(9)).resolve(&thin).unwrap(),
            (1, 1)
        );
    }

    #[test]
    fn resolution_refuses_what_new_refuses() {
        let shape = ConvShape::new(16, 64, 3, 3, 1, 1, 8, 8).unwrap();
        for (rank, groups) in [
            (RankSpec::Divisor(4), 0),
            (RankSpec::Divisor(0), 4),
            (RankSpec::Absolute(0), 4),
        ] {
            let literal = CompressionConfig {
                rank,
                groups,
                use_sdk: true,
            };
            let refused = CompressionConfig::new(rank, groups, true).unwrap_err();
            assert!(matches!(refused, Error::InvalidConfig { .. }));
            let resolved = literal.resolve(&shape).unwrap_err();
            assert_eq!(resolved.to_string(), refused.to_string(), "{literal:?}");
        }
    }

    #[test]
    fn config_validation() {
        assert!(CompressionConfig::new(RankSpec::Divisor(4), 0, true).is_err());
        assert!(CompressionConfig::new(RankSpec::Divisor(0), 1, true).is_err());
        assert!(CompressionConfig::new(RankSpec::Absolute(0), 1, true).is_err());
        assert!(CompressionConfig::new(RankSpec::Divisor(4), 4, true).is_ok());
    }

    #[test]
    fn table1_grid_has_sixteen_entries() {
        let grid = CompressionConfig::table1_grid(true);
        assert_eq!(grid.len(), 16);
        assert!(grid.iter().all(|c| c.use_sdk));
        let groups: Vec<usize> = grid.iter().map(|c| c.groups).collect();
        assert!(groups.contains(&1) && groups.contains(&8));
    }

    #[test]
    fn traditional_baseline_disables_everything() {
        let c = CompressionConfig::traditional(RankSpec::Divisor(4));
        assert_eq!(c.groups, 1);
        assert!(!c.use_sdk);
    }

    #[test]
    fn labels_are_informative() {
        let c = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
        assert_eq!(c.label(), "g=4, k=m/8, SDK");
        let t = CompressionConfig::traditional(RankSpec::Absolute(3));
        assert_eq!(t.label(), "g=1, k=k=3");
    }
}

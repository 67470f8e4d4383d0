//! The benchmark's workloads: scenario specs built from the built-in
//! registry plus overrides, with the lengths this benchmark runs them at.

use mpath_core::{CampaignJob, DisseminationSpec, ScenarioRegistry, ScenarioSpec, TopologySpec};
use netsim::SimDuration;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 30-host RON2003 campaign, cut into slices so the
    /// merge engages: measurement-plane bound.
    ///
    /// Runnable, but not among `BENCHMARK.json`'s gated workloads: its
    /// working set lives in the shared last-level cache, so its wall
    /// time swings by up to 2x with neighbouring load on a shared host.
    /// On the 2-core reference container the ten-seed spread of
    /// `campaign_s` (interquartile range over median) measured 0.16 and
    /// 0.44 in two sets, against 0.25 at most for any gated metric.
    Ron2003Campaign,
    /// The sparse mesh at 240 hosts under gossip, one slice: overlay and
    /// memory bound.
    SparseScale240,
    /// The built-in 120-host sparse mesh leased slice by slice over
    /// loopback TCP to one in-process worker: wire and transport bound.
    DistribSparse,
}

/// How a workload's timed campaign executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `shard::run_sharded` on one simulation thread.
    Local,
    /// `serve_campaign` plus one in-process `run_worker` over loopback.
    Distributed,
}

/// Simulated lengths of a workload's campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lengths {
    /// Campaign duration.
    pub duration: SimDuration,
    /// Slice width (the job's override of the spec's calibration).
    pub slice_width: SimDuration,
}

impl Workload {
    /// Every workload the harness runs; `BENCHMARK.json` lists the gated
    /// ones in this order.
    pub const ALL: [Workload; 3] = [
        Workload::Ron2003Campaign,
        Workload::SparseScale240,
        Workload::DistribSparse,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ron2003Campaign => "ron2003-campaign",
            Workload::SparseScale240 => "sparse-scale-240",
            Workload::DistribSparse => "distrib-sparse",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The timed execution mode.
    pub fn mode(self) -> Mode {
        match self {
            Workload::DistribSparse => Mode::Distributed,
            _ => Mode::Local,
        }
    }

    /// Whether the distributed runtime can carry this workload's slice
    /// results. A 240-host slice encodes to ~111 MB, above the wire's
    /// 64 MiB frame cap, so the coordinator would drop the worker and
    /// wait forever; that workload's results are checked locally only.
    pub fn distributable(self) -> bool {
        self != Workload::SparseScale240
    }

    /// The lengths the benchmark runs.
    pub fn lengths(self) -> Lengths {
        match self {
            // One hour in four 15-minute slices.
            Workload::Ron2003Campaign => Lengths {
                duration: SimDuration::from_mins(60),
                slice_width: SimDuration::from_mins(15),
            },
            // Ten measured seconds; the collector's resolution tail and
            // the n²-dense accumulators dominate the slice.
            Workload::SparseScale240 => Lengths {
                duration: SimDuration::from_secs(10),
                slice_width: SimDuration::from_secs(10),
            },
            // Three 10-second slices, each a ~28 MB result frame.
            Workload::DistribSparse => Lengths {
                duration: SimDuration::from_secs(30),
                slice_width: SimDuration::from_secs(10),
            },
        }
    }

    /// Tiny lengths with the same slice count, for the benchmark's own
    /// tests.
    pub fn tiny_lengths(self) -> Lengths {
        let slices = self
            .lengths()
            .duration
            .as_micros()
            .div_ceil(self.lengths().slice_width.as_micros());
        Lengths {
            duration: SimDuration::from_secs(slices),
            slice_width: SimDuration::from_secs(1),
        }
    }

    /// The scenario spec: a registry built-in plus this workload's
    /// overrides, validated.
    pub fn spec(self) -> Result<ScenarioSpec, String> {
        let registry = ScenarioRegistry::builtin();
        let base = match self {
            Workload::Ron2003Campaign => "ron2003",
            Workload::SparseScale240 | Workload::DistribSparse => "sparse-mesh",
        };
        let mut spec = registry
            .get(base)
            .ok_or_else(|| format!("no built-in scenario `{base}`"))?
            .clone();
        if self == Workload::SparseScale240 {
            spec.name = "sparse-mesh-240".into();
            spec.topology = TopologySpec::SparseSynthetic {
                hosts: 240,
                edge_loss: 0.02,
                mesh_k: 6,
            };
            // The scaling harness's gossip default: fanout 3 every 15 s.
            spec.dissemination = DisseminationSpec::Gossip {
                fanout: 3,
                interval_ms: 15_000,
            };
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The validated campaign job for `seed` at `lengths`.
    pub fn job(self, seed: u64, lengths: Lengths) -> Result<CampaignJob, String> {
        let mut job = CampaignJob::new(self.spec()?, seed, lengths.duration);
        job.slice_width_us = lengths.slice_width.as_micros();
        job.validate()?;
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_jobs_validate() {
        let slices =
            |w: Workload, lengths| w.job(1, lengths).expect("lengths validate").plan().len();
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(
                slices(w, w.lengths()),
                slices(w, w.tiny_lengths()),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
        let w = Workload::Ron2003Campaign;
        assert_eq!(slices(w, w.lengths()), 4, "the merge engages");
        let w = Workload::SparseScale240;
        assert_eq!(slices(w, w.lengths()), 1);
        let w = Workload::DistribSparse;
        assert!(slices(w, w.lengths()) >= 3);
    }
}

//! A BSHM problem instance: a job set plus a machine catalog.

use crate::job::{job_stats, Job, JobStats};
use crate::machine::{Catalog, CatalogClass};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Errors from instance validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// The instance has no jobs.
    NoJobs,
    /// A job has size zero.
    ZeroSize(u32),
    /// A job's active interval `[arrival, departure)` is empty.
    EmptyInterval {
        /// Id of the offending job.
        job: u32,
        /// Its arrival time.
        arrival: u64,
        /// Its departure time, at or before the arrival.
        departure: u64,
    },
    /// Two jobs share the same id.
    DuplicateJobId(u32),
    /// A job is larger than the largest machine capacity, so no feasible
    /// schedule exists.
    JobTooLarge {
        /// Id of the offending job.
        job: u32,
        /// Its size.
        size: u64,
        /// The largest capacity in the catalog.
        max_capacity: u64,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NoJobs => write!(f, "instance has no jobs"),
            InstanceError::ZeroSize(id) => write!(f, "job J{id} has size 0"),
            InstanceError::EmptyInterval {
                job,
                arrival,
                departure,
            } => write!(
                f,
                "job J{job} has an empty active interval [{arrival}, {departure})"
            ),
            InstanceError::DuplicateJobId(id) => write!(f, "duplicate job id J{id}"),
            InstanceError::JobTooLarge {
                job,
                size,
                max_capacity,
            } => write!(
                f,
                "job J{job} of size {size} exceeds the largest machine capacity {max_capacity}"
            ),
        }
    }
}

impl std::error::Error for InstanceError {}

/// A validated BSHM instance.
///
/// Invariants: at least one job, every job of positive size with a
/// non-empty active interval, unique job ids, and every job fits on the
/// largest machine type. Jobs are stored sorted by `(arrival, id)` — the
/// order in which a non-clairvoyant online algorithm observes them.
/// Decoding from JSON goes through [`Instance::new`], so a decoded
/// instance holds the same invariants.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Instance {
    jobs: Vec<Job>,
    catalog: Catalog,
}

impl Instance {
    /// Validates and builds an instance. Jobs are re-sorted by arrival time
    /// (ties broken by id) regardless of input order.
    pub fn new(mut jobs: Vec<Job>, catalog: Catalog) -> Result<Self, InstanceError> {
        if jobs.is_empty() {
            return Err(InstanceError::NoJobs);
        }
        let mut seen = HashSet::with_capacity(jobs.len());
        let max_capacity = catalog.max_capacity();
        for j in &jobs {
            if j.size == 0 {
                return Err(InstanceError::ZeroSize(j.id.0));
            }
            if j.arrival >= j.departure {
                return Err(InstanceError::EmptyInterval {
                    job: j.id.0,
                    arrival: j.arrival,
                    departure: j.departure,
                });
            }
            if !seen.insert(j.id) {
                return Err(InstanceError::DuplicateJobId(j.id.0));
            }
            if j.size > max_capacity {
                return Err(InstanceError::JobTooLarge {
                    job: j.id.0,
                    size: j.size,
                    max_capacity,
                });
            }
        }
        jobs.sort_unstable_by_key(|j| (j.arrival, j.id));
        Ok(Self { jobs, catalog })
    }

    /// The jobs, sorted by `(arrival, id)`.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The machine catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of jobs.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Looks a job up by id (linear scan; instances keep jobs small enough
    /// that callers needing random access should build their own map).
    #[must_use]
    pub fn job(&self, id: crate::job::JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Aggregate job statistics (never `None`: instances are non-empty).
    #[must_use]
    #[expect(clippy::expect_used, reason = "Instance::new rejects empty job sets")]
    pub fn stats(&self) -> JobStats {
        job_stats(&self.jobs).expect("instance is non-empty")
    }

    /// DEC / INC / general classification of the catalog.
    #[must_use]
    pub fn classify(&self) -> CatalogClass {
        self.catalog.classify()
    }
}

impl Deserialize for Instance {
    fn deserialize(de: &mut serde::Decoder<'_>) -> Result<Self, serde::Error> {
        let raw = wire::Instance::deserialize(de)?;
        Instance::new(raw.jobs, raw.catalog).map_err(|e| serde::Error(format!("Instance: {e}")))
    }
}

/// The unchecked JSON shape of [`Instance`], named alike so that decode
/// errors name the public type.
mod wire {
    use crate::job::Job;
    use crate::machine::Catalog;
    use serde::Deserialize;

    #[derive(Deserialize)]
    pub(super) struct Instance {
        pub(super) jobs: Vec<Job>,
        pub(super) catalog: Catalog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineType;

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap()
    }

    #[test]
    fn sorts_jobs_by_arrival() {
        let inst = Instance::new(
            vec![
                Job::new(0, 1, 10, 20),
                Job::new(1, 1, 5, 9),
                Job::new(2, 1, 5, 7),
            ],
            catalog(),
        )
        .unwrap();
        let order: Vec<u32> = inst.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Instance::new(vec![], catalog()).unwrap_err(),
            InstanceError::NoJobs
        );
    }

    #[test]
    fn rejects_duplicate_ids() {
        let err =
            Instance::new(vec![Job::new(3, 1, 0, 1), Job::new(3, 2, 5, 6)], catalog()).unwrap_err();
        assert_eq!(err, InstanceError::DuplicateJobId(3));
    }

    #[test]
    fn rejects_oversized_job() {
        let err = Instance::new(vec![Job::new(0, 17, 0, 1)], catalog()).unwrap_err();
        assert_eq!(
            err,
            InstanceError::JobTooLarge {
                job: 0,
                size: 17,
                max_capacity: 16
            }
        );
    }

    #[test]
    fn rejects_zero_size_and_empty_intervals() {
        let unchecked = |size, arrival, departure| Job {
            id: crate::job::JobId(4),
            size,
            arrival,
            departure,
        };
        assert_eq!(
            Instance::new(vec![unchecked(0, 0, 1)], catalog()).unwrap_err(),
            InstanceError::ZeroSize(4)
        );
        for (arrival, departure) in [(3, 3), (4, 3)] {
            assert_eq!(
                Instance::new(vec![unchecked(1, arrival, departure)], catalog()).unwrap_err(),
                InstanceError::EmptyInterval {
                    job: 4,
                    arrival,
                    departure
                }
            );
        }
    }

    #[test]
    fn decoding_goes_through_new() {
        let text = |jobs: &str| {
            format!(
                r#"{{"jobs":[{jobs}],"catalog":{{"types":[{{"capacity":4,"rate":1}},{{"capacity":16,"rate":2}}]}}}}"#
            )
        };
        let unsorted = text(
            r#"{"id":0,"size":1,"arrival":10,"departure":20},{"id":1,"size":1,"arrival":5,"departure":9}"#,
        );
        let inst: Instance = serde_json::from_str(&unsorted).unwrap();
        let order: Vec<u32> = inst.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![1, 0]);
        for (jobs, err) in [
            ("", "instance has no jobs"),
            (
                r#"{"id":7,"size":0,"arrival":0,"departure":1}"#,
                "job J7 has size 0",
            ),
            (
                r#"{"id":7,"size":1,"arrival":2,"departure":2}"#,
                "job J7 has an empty active interval [2, 2)",
            ),
            (
                r#"{"id":7,"size":1,"arrival":0,"departure":1},{"id":7,"size":1,"arrival":0,"departure":1}"#,
                "duplicate job id J7",
            ),
            (
                r#"{"id":7,"size":17,"arrival":0,"departure":1}"#,
                "job J7 of size 17 exceeds the largest machine capacity 16",
            ),
        ] {
            let e = serde_json::from_str::<Instance>(&text(jobs)).unwrap_err();
            assert_eq!(e.to_string(), format!("Instance: {err}"));
        }
    }

    #[test]
    fn serde_round_trip() {
        let inst = Instance::new(vec![Job::new(0, 3, 0, 10)], catalog()).unwrap();
        let s = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&s).unwrap();
        assert_eq!(inst, back);
    }
}

//! The output check behind `attempted`/`failed` (the error rate).
//!
//! Every reconstruction the benchmark runs is compared with an untimed
//! single-node `ifdk::reconstruct` of the same inputs at the repository's
//! distributed/streaming-vs-single tolerance, and must also be bitwise
//! equal to the first output that passed in the same run (the pipelines
//! are deterministic). A failure is counted; it never aborts the run.

use ct_core::metrics::nrmse;
use ct_core::{Result, Volume};

/// NRMSE bound against the single-node reference.
pub const NRMSE_BOUND: f64 = 1e-5;

/// Counts reconstructions and the ones that failed.
pub struct Checker {
    reference: Volume,
    first: Option<Vec<u32>>,
    /// Reconstructions checked.
    pub attempted: u64,
    /// Reconstructions that returned an error or failed the check.
    pub failed: u64,
}

impl Checker {
    /// A checker against `reference` (an i-major volume).
    pub fn new(reference: Volume) -> Self {
        Self {
            reference,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one output; returns whether it passed. Failures are also
    /// described on stderr.
    pub fn record(&mut self, what: &str, out: Result<Volume>) -> bool {
        self.attempted += 1;
        let verdict = out.map_err(|e| e.to_string()).and_then(|v| self.judge(&v));
        if let Err(why) = &verdict {
            self.failed += 1;
            eprintln!("check failed: {what}: {why}");
        }
        verdict.is_ok()
    }

    fn judge(&mut self, v: &Volume) -> std::result::Result<(), String> {
        if v.dims() != self.reference.dims() || v.layout() != self.reference.layout() {
            return Err(format!(
                "shape {:?}/{:?}, expected {:?}/{:?}",
                v.dims(),
                v.layout(),
                self.reference.dims(),
                self.reference.layout()
            ));
        }
        let e = nrmse(self.reference.data(), v.data()).map_err(|e| e.to_string())?;
        // A NaN error fails too.
        if e.is_nan() || e > NRMSE_BOUND {
            return Err(format!("NRMSE {e:e} > {NRMSE_BOUND:e}"));
        }
        let bits: Vec<u32> = v.data().iter().map(|x| x.to_bits()).collect();
        match &self.first {
            None => self.first = Some(bits),
            Some(first) if *first != bits => {
                let n = first.iter().zip(&bits).filter(|(a, b)| a != b).count();
                return Err(format!(
                    "{n} voxels differ bitwise from the run's first output"
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::{CtError, Dims3, VolumeLayout};

    fn volume(f: impl Fn(usize) -> f32) -> Volume {
        let dims = Dims3::cube(8);
        Volume::from_vec(dims, VolumeLayout::IMajor, (0..dims.len()).map(f).collect()).unwrap()
    }

    #[test]
    fn perturbed_volumes_are_counted_failed() {
        let base = |i: usize| 1.0 + (i % 17) as f32;
        let mut c = Checker::new(volume(base));
        assert!(c.record("first", Ok(volume(base))));
        assert!(c.record("same", Ok(volume(base))));
        // Far off the reference.
        assert!(!c.record(
            "bad voxel",
            Ok(volume(|i| if i == 5 { 1e3 } else { base(i) }))
        ));
        // Within the NRMSE bound but not bitwise equal to the first output.
        let nudged = |i: usize| {
            let x = base(i);
            if i == 3 {
                f32::from_bits(x.to_bits() + 1)
            } else {
                x
            }
        };
        assert!(!c.record("one ulp", Ok(volume(nudged))));
        assert!(!c.record("nan", Ok(volume(|_| f32::NAN))));
        assert!(!c.record("error", Err(CtError::InvalidConfig("boom".into()))));
        let wrong = Volume::zeros(Dims3::cube(4), VolumeLayout::IMajor);
        assert!(!c.record("shape", Ok(wrong)));
        assert_eq!((c.attempted, c.failed), (7, 5));
    }
}

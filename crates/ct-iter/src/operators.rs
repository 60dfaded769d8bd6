//! The forward/back projection operator pair for iterative solvers.

use ct_bp::tiled::TileConfig;
use ct_bp::warp::{backproject_warp_with, WARP_BATCH};
use ct_core::error::{CtError, Result};
use ct_core::forward::project_ray_marching;
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::projection::{ProjectionImage, ProjectionStack, TransposedProjection};
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// A matched pair of operators over one geometry.
pub struct Operators {
    geo: CbctGeometry,
    mats: Vec<ProjectionMatrix>,
    pool: Pool,
    /// Ray-marching step as a fraction of the voxel pitch.
    step_frac: f64,
}

impl Operators {
    /// Build operators for a geometry.
    pub fn new(geo: CbctGeometry, pool: Pool, step_frac: f64) -> Result<Self> {
        geo.validate()?;
        if !(step_frac > 0.0 && step_frac <= 1.0) {
            return Err(CtError::InvalidConfig(format!(
                "step_frac = {step_frac} must be in (0, 1]"
            )));
        }
        let mats = geo.projection_matrices();
        Ok(Self {
            geo,
            mats,
            pool,
            step_frac,
        })
    }

    /// The geometry in use.
    pub fn geometry(&self) -> &CbctGeometry {
        &self.geo
    }

    /// Forward-project the volume at projection index `pi` (`A_i x`).
    pub fn forward_one(&self, vol: &Volume, pi: usize) -> ProjectionImage {
        project_ray_marching(&self.geo, vol, pi, self.step_frac)
    }

    /// Forward-project a subset of projection indices in parallel.
    pub fn forward_subset(&self, vol: &Volume, indices: &[usize]) -> Vec<ProjectionImage> {
        self.pool
            .parallel_map(indices.len(), 1, |t| {
                Some(self.forward_one(vol, indices[t]))
            })
            .into_iter()
            .map(|img| img.expect("each index projected"))
            .collect()
    }

    /// Back-project images at the given projection indices (`A_S^T r`),
    /// returning an i-major volume. Uses the paper's proposed batched
    /// kernel — the exact reuse the paper advertises for iterative
    /// methods.
    pub fn back_subset(&self, images: &[ProjectionImage], indices: &[usize]) -> Result<Volume> {
        if images.len() != indices.len() {
            return Err(CtError::ShapeMismatch {
                expected: format!("{} images", indices.len()),
                actual: format!("{}", images.len()),
            });
        }
        let sub_mats: Vec<ProjectionMatrix> = indices.iter().map(|&i| self.mats[i]).collect();
        let samplers: Vec<TransposedProjection> =
            images.iter().map(|img| img.transposed()).collect();
        let vol = backproject_warp_with(
            &self.pool,
            &sub_mats,
            &samplers,
            self.geo.detector.nv,
            self.geo.volume,
            WARP_BATCH,
            TileConfig::AUTO,
        );
        Ok(vol.into_layout(VolumeLayout::IMajor))
    }

    /// Per-voxel normalisation for a subset: `A_S^T 1` (back-projection of
    /// all-ones images), clamped away from zero.
    pub fn voxel_weights(&self, indices: &[usize]) -> Result<Volume> {
        let mut ones = ProjectionImage::zeros(self.geo.detector);
        ones.data_mut().iter_mut().for_each(|p| *p = 1.0);
        let images = vec![ones; indices.len()];
        let mut w = self.back_subset(&images, indices)?;
        let eps = 1e-6f32;
        for v in w.data_mut() {
            if *v < eps {
                *v = eps;
            }
        }
        Ok(w)
    }

    /// Per-ray normalisation: `A 1` (forward projection of an all-ones
    /// volume = intersection length of each ray with the volume), clamped
    /// away from zero.
    pub fn ray_norms(&self, indices: &[usize]) -> Vec<ProjectionImage> {
        let ones = {
            let mut v = Volume::zeros(self.geo.volume, VolumeLayout::IMajor);
            v.data_mut().iter_mut().for_each(|x| *x = 1.0);
            v
        };
        let mut norms = self.forward_subset(&ones, indices);
        for img in &mut norms {
            for p in img.data_mut() {
                if *p < 1e-3 {
                    *p = f32::INFINITY; // rays missing the volume get zero update
                }
            }
        }
        norms
    }

    /// Measured-vs-estimate residual norm `||p - A x||_2 / ||p||_2` over
    /// all projections (solver progress metric).
    pub fn residual_norm(&self, vol: &Volume, measured: &ProjectionStack) -> f64 {
        let indices: Vec<usize> = (0..measured.len()).collect();
        let fwd = self.forward_subset(vol, &indices);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (est, meas) in fwd.iter().zip(measured.iter()) {
            for (&a, &b) in est.data().iter().zip(meas.data().iter()) {
                let d = (b - a) as f64;
                num += d * d;
                den += (b as f64) * (b as f64);
            }
        }
        (num / den.max(1e-300)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::phantom::Phantom;
    use ct_core::problem::{Dims2, Dims3};

    fn ops(n: usize, np: usize) -> Operators {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        Operators::new(geo, Pool::new(2), 0.5).unwrap()
    }

    #[test]
    fn construction_validates() {
        let geo = CbctGeometry::standard(Dims2::new(16, 16), 4, Dims3::cube(8));
        assert!(Operators::new(geo.clone(), Pool::serial(), 0.0).is_err());
        assert!(Operators::new(geo.clone(), Pool::serial(), 2.0).is_err());
        assert!(Operators::new(geo, Pool::serial(), 0.5).is_ok());
    }

    #[test]
    fn forward_of_zero_volume_is_zero() {
        let o = ops(8, 4);
        let vol = Volume::zeros(o.geometry().volume, VolumeLayout::IMajor);
        let img = o.forward_one(&vol, 0);
        assert!(img.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn forward_subset_matches_one_by_one() {
        let o = ops(8, 6);
        let ph = Phantom::uniform_sphere(2.5);
        let vol = ph.voxelize(o.geometry().volume, VolumeLayout::IMajor, |i, j, k| {
            o.geometry().voxel_position(i, j, k)
        });
        let subset = [1usize, 3, 5];
        let batch = o.forward_subset(&vol, &subset);
        for (t, &pi) in subset.iter().enumerate() {
            assert_eq!(batch[t], o.forward_one(&vol, pi));
        }
    }

    #[test]
    fn voxel_weights_positive_inside_fov() {
        let o = ops(8, 8);
        let w = o.voxel_weights(&[0, 2, 4, 6]).unwrap();
        // Central voxel is seen by every projection.
        assert!(w.get(4, 4, 4) > 1e-6);
        // Everything clamped positive.
        assert!(w.data().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn ray_norms_are_chord_lengths() {
        let o = ops(16, 4);
        let norms = o.ray_norms(&[0]);
        let geo = o.geometry();
        // The central ray crosses the full volume: roughly the volume side
        // (modulo the cube diagonal at this angle).
        let c = norms[0].get(geo.detector.nu / 2, geo.detector.nv / 2);
        assert!(c > geo.volume.nx as f32 * 0.8, "central chord {c}");
        // Corner rays miss: marked infinite.
        assert!(norms[0].get(0, 0).is_infinite());
    }

    #[test]
    fn back_subset_checks_lengths() {
        let o = ops(8, 4);
        let img = ProjectionImage::zeros(o.geometry().detector);
        assert!(o.back_subset(&[img], &[0, 1]).is_err());
    }

    #[test]
    fn residual_norm_zero_for_perfect_data() {
        let o = ops(8, 4);
        let ph = Phantom::uniform_sphere(2.5);
        let vol = ph.voxelize(o.geometry().volume, VolumeLayout::IMajor, |i, j, k| {
            o.geometry().voxel_position(i, j, k)
        });
        let indices: Vec<usize> = (0..4).collect();
        let fwd = o.forward_subset(&vol, &indices);
        let stack = ProjectionStack::from_images(o.geometry().detector, fwd).unwrap();
        let r = o.residual_norm(&vol, &stack);
        assert!(r < 1e-6, "{r}");
    }
}

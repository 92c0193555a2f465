//! Feature/target standardization. Simulator inputs span wildly different
//! physical units (nanometers, valencies, molarities), so both inputs and
//! outputs are z-scored before training and predictions are mapped back.

use le_linalg::Matrix;

use crate::{NnError, Result};

/// Per-column affine scaler: `scaled = (x - mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fit a scaler to the columns of `data`. Columns with zero variance get
    /// std 1 so they pass through unchanged (after centering).
    pub fn fit(data: &Matrix) -> Result<Self> {
        if data.rows() == 0 {
            return Err(NnError::Shape("cannot fit scaler to empty data".into()));
        }
        let n = data.rows() as f64;
        let cols = data.cols();
        let mut means = vec![0.0; cols];
        for r in 0..data.rows() {
            for (m, &v) in means.iter_mut().zip(data.row(r).iter()) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; cols];
        for r in 0..data.rows() {
            for ((s, &v), &m) in stds.iter_mut().zip(data.row(r).iter()).zip(means.iter()) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Ok(Self { means, stds })
    }

    /// Number of columns this scaler applies to.
    pub fn cols(&self) -> usize {
        self.means.len()
    }

    /// Transform a batch into scaled space.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        self.check(data.cols())?;
        let mut out = data.clone();
        for r in 0..out.rows() {
            self.transform_slice(out.row_mut(r))?;
        }
        Ok(out)
    }

    /// Transform a single sample in place.
    pub fn transform_slice(&self, x: &mut [f64]) -> Result<()> {
        self.check(x.len())?;
        for ((v, &m), &s) in x.iter_mut().zip(self.means.iter()).zip(self.stds.iter()) {
            *v = (*v - m) / s;
        }
        Ok(())
    }

    /// Inverse-transform a single sample in place.
    pub fn inverse_transform_slice(&self, x: &mut [f64]) -> Result<()> {
        self.check(x.len())?;
        for ((v, &m), &s) in x.iter_mut().zip(self.means.iter()).zip(self.stds.iter()) {
            *v = *v * s + m;
        }
        Ok(())
    }

    /// Scale a *standard deviation* from scaled space back to original units
    /// (pure multiplication — no mean shift), as for an MC-dropout std.
    pub fn inverse_scale_std(&self, col: usize, std_scaled: f64) -> f64 {
        std_scaled * self.stds[col]
    }

    fn check(&self, cols: usize) -> Result<()> {
        if cols != self.cols() {
            return Err(NnError::Shape(format!(
                "scaler expects {} columns, got {cols}",
                self.cols()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_standardizes() {
        let data = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]]);
        let scaler = Scaler::fit(&data).unwrap();
        let t = scaler.transform(&data).unwrap();
        // Each column: mean 0, population std 1.
        for c in 0..2 {
            let col: Vec<f64> = (0..3).map(|r| t.get(r, c)).collect();
            let mean = col.iter().sum::<f64>() / 3.0;
            let var = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let data = Matrix::from_rows(&[&[1.5, -2.0, 7.0], &[0.0, 3.0, -1.0], &[2.2, 0.1, 4.0]]);
        let scaler = Scaler::fit(&data).unwrap();
        let mut back = scaler.transform(&data).unwrap();
        for r in 0..back.rows() {
            scaler.inverse_transform_slice(back.row_mut(r)).unwrap();
        }
        for (a, b) in back.as_slice().iter().zip(data.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_passes_through() {
        let data = Matrix::from_rows(&[&[5.0, 1.0], &[5.0, 2.0], &[5.0, 3.0]]);
        let scaler = Scaler::fit(&data).unwrap();
        let mut t = scaler.transform(&data).unwrap();
        for r in 0..3 {
            assert_eq!(t.get(r, 0), 0.0, "constant column centers to 0");
            scaler.inverse_transform_slice(t.row_mut(r)).unwrap();
            assert_eq!(t.get(r, 0), 5.0);
        }
    }

    #[test]
    fn slice_variants_match_matrix() {
        let data = Matrix::from_rows(&[&[1.0, -4.0], &[3.0, 2.0], &[-1.0, 0.0]]);
        let scaler = Scaler::fit(&data).unwrap();
        let mut x = [3.0, 2.0];
        scaler.transform_slice(&mut x).unwrap();
        let t = scaler.transform(&data).unwrap();
        assert!((x[0] - t.get(1, 0)).abs() < 1e-12);
        assert!((x[1] - t.get(1, 1)).abs() < 1e-12);
        scaler.inverse_transform_slice(&mut x).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shape_validation() {
        let scaler = Scaler::fit(&Matrix::zeros(2, 3)).unwrap();
        assert!(scaler.transform(&Matrix::zeros(2, 2)).is_err());
        assert!(scaler.transform_slice(&mut [0.0, 0.0]).is_err());
    }

    #[test]
    fn empty_fit_errors() {
        assert!(Scaler::fit(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn inverse_scale_std_is_multiplicative() {
        let scaler = Scaler {
            means: vec![10.0, 20.0],
            stds: vec![2.0, 4.0],
        };
        assert_eq!(scaler.inverse_scale_std(0, 1.5), 3.0);
        assert_eq!(scaler.inverse_scale_std(1, 0.5), 2.0);
    }
}

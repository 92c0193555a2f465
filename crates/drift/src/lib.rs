#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `le-drift` — deterministic, seeded distribution-drift schedules for the
//! MLaroundHPC stack.
//!
//! A surrogate is only as good as the distribution it was trained on; the
//! paper's "effective performance" collapses silently when the parameter
//! stream drifts away from that distribution and the model keeps answering
//! confidently wrong. This crate supplies the reproducible *drift stimulus*
//! the staleness detector and rolling-retrain path in `le-core` are tested
//! and gated against — the distribution-shift sibling of `le-faults`:
//!
//! * [`DriftWave`] — a primitive shape over logical time: a [`DriftWave::Step`]
//!   shift, a linear [`DriftWave::Ramp`], or a periodic
//!   [`DriftWave::Oscillation`].
//! * [`AxisDrift`] — a wave bound to one input-feature axis.
//! * [`DriftSchedule`] — a seed plus a set of axis waves and an optional
//!   per-`(axis, t)` jitter. Every offset is a **pure function** of
//!   `(seed, axis, t)` via a splitmix64-style hash: no state, no wall clock,
//!   no ambient entropy, so the exact same logical times drift by the exact
//!   same amounts at any thread count, in any execution order.
//! * [`presets`] — ready-made schedules for the two paper substrates: the
//!   nanoconfinement MD parameter distribution (`[h, z_p, z_n, c, d]`) and
//!   the epidemic surveillance stream, plus range-respecting appliers
//!   ([`presets::shift_nano`], [`presets::shift_surveillance`]) that keep
//!   drifted parameters physically valid.
//!
//! Everything here passes the le-lint determinism and wallclock rules by
//! construction: the only inputs are the seed, the axis, and the logical
//! time index the caller already counts.

use le_linalg::rng::splitmix64;
use learning_everywhere::{LeError, Result};

/// Domain-separation salt for the per-`(axis, t)` jitter stream, mixed with
/// the axis index so each axis gets an independent stream.
const SALT_JITTER: u64 = 0xD21F_7A11_5EED_0001;

/// A primitive drift shape: the additive offset it contributes to one
/// feature axis as a pure function of logical time `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftWave {
    /// Zero before `at`, a constant `amplitude` from `at` onward — the
    /// abrupt regime change (new instrument, new variant, new substrate).
    Step {
        /// Logical time at which the shift lands.
        at: u64,
        /// Offset applied from `at` onward.
        amplitude: f64,
    },
    /// Zero before `start`, linear from 0 to `amplitude` over
    /// `[start, end)`, then a constant `amplitude` — slow secular drift.
    Ramp {
        /// Logical time the ramp begins.
        start: u64,
        /// Logical time the ramp saturates (must be `> start`).
        end: u64,
        /// Offset reached at `end` and held thereafter.
        amplitude: f64,
    },
    /// `amplitude * sin(2π t / period)` — seasonal / cyclic drift the
    /// detector must flag repeatedly, not once.
    Oscillation {
        /// Full cycle length in logical time steps (must be `>= 2`).
        period: u64,
        /// Peak offset.
        amplitude: f64,
    },
}

impl DriftWave {
    fn validate(&self) -> Result<()> {
        let amp = match self {
            DriftWave::Step { amplitude, .. } => *amplitude,
            DriftWave::Ramp {
                start,
                end,
                amplitude,
            } => {
                if end <= start {
                    return Err(LeError::InvalidConfig(format!(
                        "drift ramp must have end > start, got [{start}, {end})"
                    )));
                }
                *amplitude
            }
            DriftWave::Oscillation { period, amplitude } => {
                if *period < 2 {
                    return Err(LeError::InvalidConfig(format!(
                        "drift oscillation period must be >= 2, got {period}"
                    )));
                }
                *amplitude
            }
        };
        if !amp.is_finite() {
            return Err(LeError::InvalidConfig(format!(
                "drift amplitude must be finite, got {amp}"
            )));
        }
        Ok(())
    }

    /// The offset this wave contributes at logical time `t`. Pure.
    pub fn offset_at(&self, t: u64) -> f64 {
        match *self {
            DriftWave::Step { at, amplitude } => {
                if t >= at {
                    amplitude
                } else {
                    0.0
                }
            }
            DriftWave::Ramp {
                start,
                end,
                amplitude,
            } => {
                if t < start {
                    0.0
                } else if t >= end {
                    amplitude
                } else {
                    amplitude * (t - start) as f64 / (end - start) as f64
                }
            }
            DriftWave::Oscillation { period, amplitude } => {
                let phase = (t % period) as f64 / period as f64;
                amplitude * (2.0 * std::f64::consts::PI * phase).sin()
            }
        }
    }
}

/// A [`DriftWave`] bound to one input-feature axis. Several waves may share
/// an axis; their offsets add.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisDrift {
    /// Index of the feature axis the wave shifts.
    pub axis: usize,
    /// The shape of the shift over logical time.
    pub wave: DriftWave,
}

/// A seeded drift schedule: which feature axes shift, by how much, at which
/// logical times — decided statelessly so the drifted stream reproduces
/// bit-for-bit across runs, thread counts, and execution orders.
#[derive(Debug, Clone)]
pub struct DriftSchedule {
    seed: u64,
    axes: Vec<AxisDrift>,
    jitter: f64,
}

impl DriftSchedule {
    /// Build a schedule from a seed, a set of axis waves, and a jitter
    /// half-width (each `(axis, t)` additionally receives a deterministic
    /// uniform offset in `[-jitter, jitter]`; pass `0.0` for none).
    pub fn new(seed: u64, axes: Vec<AxisDrift>, jitter: f64) -> Result<Self> {
        if !(jitter.is_finite() && jitter >= 0.0) {
            return Err(LeError::InvalidConfig(format!(
                "drift jitter must be finite and >= 0, got {jitter}"
            )));
        }
        for a in &axes {
            a.wave.validate()?;
        }
        Ok(Self { seed, axes, jitter })
    }

    /// A schedule that shifts nothing (useful as a control arm).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            axes: Vec::new(),
            jitter: 0.0,
        }
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured axis waves.
    pub fn axes(&self) -> &[AxisDrift] {
        &self.axes
    }

    /// A uniform variate in `[0, 1)` for `(axis, t)` — the one source of
    /// randomness behind the jitter term.
    fn unit(&self, axis: usize, t: u64) -> f64 {
        let salt = SALT_JITTER ^ splitmix64(axis as u64);
        let h = splitmix64(self.seed ^ splitmix64(salt ^ splitmix64(t)));
        // 53 high bits -> [0, 1) exactly as le_linalg's Rng does.
        (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// The total additive offset for `axis` at logical time `t`: the sum of
    /// every wave bound to that axis, plus the jitter term. Pure — calling
    /// it twice (or from different threads, in any order) gives the same
    /// answer.
    pub fn offset(&self, axis: usize, t: u64) -> f64 {
        let mut total: f64 = self
            .axes
            .iter()
            .filter(|a| a.axis == axis)
            .map(|a| a.wave.offset_at(t))
            .sum();
        if self.jitter > 0.0 {
            total += self.jitter * (2.0 * self.unit(axis, t) - 1.0);
        }
        total
    }

    /// Shift a feature row in place as of logical time `t`. Axes configured
    /// beyond the row's length are ignored, so one schedule can serve
    /// projections of the same stream.
    pub fn shift_row(&self, row: &mut [f64], t: u64) {
        for axis in 0..row.len() {
            row[axis] += self.offset(axis, t);
        }
    }

    /// [`DriftSchedule::shift_row`] on a copy.
    pub fn shifted(&self, row: &[f64], t: u64) -> Vec<f64> {
        let mut out = row.to_vec();
        self.shift_row(&mut out, t);
        out
    }
}

/// Ready-made schedules for the two paper substrates, plus appliers that
/// keep the drifted parameters physically valid.
pub mod presets {
    use super::{AxisDrift, DriftSchedule, DriftWave};
    use le_mdsim::nanoconfinement::NanoParams;
    use le_netdyn::surveillance::Surveillance;

    /// Feature axes of [`NanoParams::to_features`]: `[h, z_p, z_n, c, d]`.
    const NANO_H: usize = 0;
    const NANO_C: usize = 3;
    const NANO_D: usize = 4;

    /// The drift-campaign schedule for the nanoconfinement MD substrate:
    /// the slab height ramps upward across `[warmup, warmup + span)`, the
    /// salt concentration picks up a seasonal oscillation, and the ion
    /// diameter takes an abrupt step at `warmup + span / 2` — all scaled so
    /// a pre-drift surrogate sees genuinely out-of-distribution parameters
    /// after the schedule saturates, while [`shift_nano`] keeps every point
    /// physically valid.
    pub fn nanoconfinement(seed: u64, warmup: u64, span: u64) -> DriftSchedule {
        let span = span.max(2);
        DriftSchedule::new(
            seed,
            vec![
                AxisDrift {
                    axis: NANO_H,
                    wave: DriftWave::Ramp {
                        start: warmup,
                        end: warmup + span,
                        amplitude: 1.6,
                    },
                },
                AxisDrift {
                    axis: NANO_C,
                    wave: DriftWave::Oscillation {
                        period: span,
                        amplitude: 0.25,
                    },
                },
                AxisDrift {
                    axis: NANO_D,
                    wave: DriftWave::Step {
                        at: warmup + span / 2,
                        amplitude: 0.12,
                    },
                },
            ],
            0.02,
        )
        .expect("preset amplitudes are finite") // lint:allow(no-panic): static config
    }

    /// Apply `schedule` to a nanoconfinement parameter point as of logical
    /// time `t`, clamping each drifted axis back into the physical study
    /// ranges (`H_RANGE`/`C_RANGE`/`D_RANGE`, which also preserve the
    /// `d < h/2` packing constraint). Valencies are discrete and never
    /// drift.
    pub fn shift_nano(schedule: &DriftSchedule, params: &NanoParams, t: u64) -> NanoParams {
        let clamp = |v: f64, (lo, hi): (f64, f64)| v.max(lo).min(hi);
        NanoParams {
            h: clamp(params.h + schedule.offset(NANO_H, t), NanoParams::H_RANGE),
            z_p: params.z_p,
            z_n: params.z_n,
            c: clamp(params.c + schedule.offset(NANO_C, t), NanoParams::C_RANGE),
            d: clamp(params.d + schedule.offset(NANO_D, t), NanoParams::D_RANGE),
        }
    }

    /// Surveillance-stream axes: reporting fraction, noise, delay (weeks).
    const SURV_REPORTING: usize = 0;
    const SURV_NOISE: usize = 1;
    const SURV_DELAY: usize = 2;

    /// The drift-campaign schedule for the epidemic surveillance stream:
    /// reporting completeness decays on a ramp (fatigue), observation noise
    /// steps up mid-campaign (instrument change), and the reporting delay
    /// oscillates with the season.
    pub fn surveillance(seed: u64, warmup: u64, span: u64) -> DriftSchedule {
        let span = span.max(2);
        DriftSchedule::new(
            seed,
            vec![
                AxisDrift {
                    axis: SURV_REPORTING,
                    wave: DriftWave::Ramp {
                        start: warmup,
                        end: warmup + span,
                        amplitude: -0.35,
                    },
                },
                AxisDrift {
                    axis: SURV_NOISE,
                    wave: DriftWave::Step {
                        at: warmup + span / 2,
                        amplitude: 0.15,
                    },
                },
                AxisDrift {
                    axis: SURV_DELAY,
                    wave: DriftWave::Oscillation {
                        period: span,
                        amplitude: 1.5,
                    },
                },
            ],
            0.01,
        )
        .expect("preset amplitudes are finite") // lint:allow(no-panic): static config
    }

    /// Apply `schedule` to a surveillance model as of logical week `t`,
    /// clamping the drifted parameters to their valid ranges (reporting
    /// fraction in `[0.05, 1.0]`, noise in `[0.0, 2.0]`, delay in
    /// `0..=8` weeks, rounded to whole weeks).
    pub fn shift_surveillance(
        schedule: &DriftSchedule,
        base: &Surveillance,
        t: u64,
    ) -> Surveillance {
        let rf = (base.reporting_fraction + schedule.offset(SURV_REPORTING, t)).clamp(0.05, 1.0);
        let noise = (base.noise + schedule.offset(SURV_NOISE, t)).clamp(0.0, 2.0);
        let delay = (base.delay_weeks as f64 + schedule.offset(SURV_DELAY, t))
            .round()
            .clamp(0.0, 8.0) as usize;
        Surveillance {
            reporting_fraction: rf,
            noise,
            delay_weeks: delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::presets::{nanoconfinement, shift_nano, shift_surveillance, surveillance};
    use super::*;
    use le_mdsim::nanoconfinement::NanoParams;
    use le_netdyn::surveillance::Surveillance;

    #[test]
    fn config_validation() {
        assert!(DriftSchedule::new(1, vec![], f64::NAN).is_err());
        assert!(DriftSchedule::new(1, vec![], -0.1).is_err());
        let bad_ramp = AxisDrift {
            axis: 0,
            wave: DriftWave::Ramp {
                start: 10,
                end: 10,
                amplitude: 1.0,
            },
        };
        assert!(DriftSchedule::new(1, vec![bad_ramp], 0.0).is_err());
        let bad_osc = AxisDrift {
            axis: 0,
            wave: DriftWave::Oscillation {
                period: 1,
                amplitude: 1.0,
            },
        };
        assert!(DriftSchedule::new(1, vec![bad_osc], 0.0).is_err());
        let bad_amp = AxisDrift {
            axis: 0,
            wave: DriftWave::Step {
                at: 0,
                amplitude: f64::INFINITY,
            },
        };
        assert!(DriftSchedule::new(1, vec![bad_amp], 0.0).is_err());
    }

    #[test]
    fn wave_shapes() {
        let step = DriftWave::Step {
            at: 10,
            amplitude: 2.0,
        };
        assert_eq!(step.offset_at(9), 0.0);
        assert_eq!(step.offset_at(10), 2.0);
        assert_eq!(step.offset_at(1000), 2.0);

        let ramp = DriftWave::Ramp {
            start: 10,
            end: 20,
            amplitude: 1.0,
        };
        assert_eq!(ramp.offset_at(0), 0.0);
        assert_eq!(ramp.offset_at(10), 0.0);
        assert!((ramp.offset_at(15) - 0.5).abs() < 1e-12);
        assert_eq!(ramp.offset_at(20), 1.0);
        assert_eq!(ramp.offset_at(99), 1.0);

        let osc = DriftWave::Oscillation {
            period: 8,
            amplitude: 3.0,
        };
        assert!(osc.offset_at(0).abs() < 1e-12);
        assert!((osc.offset_at(2) - 3.0).abs() < 1e-12); // quarter period
        assert!((osc.offset_at(6) + 3.0).abs() < 1e-12); // three quarters
        assert!((osc.offset_at(8) - osc.offset_at(0)).abs() < 1e-12); // periodic
    }

    #[test]
    fn offsets_replay_identically() {
        let mk = || {
            DriftSchedule::new(
                77,
                vec![
                    AxisDrift {
                        axis: 0,
                        wave: DriftWave::Ramp {
                            start: 5,
                            end: 50,
                            amplitude: 2.0,
                        },
                    },
                    AxisDrift {
                        axis: 2,
                        wave: DriftWave::Oscillation {
                            period: 16,
                            amplitude: 0.5,
                        },
                    },
                ],
                0.05,
            )
            .unwrap()
        };
        let a = mk();
        let b = mk();
        // Pure in (axis, t): identical across instances, repeat calls, and
        // any query order — the property the thread-sweep digest gate rests
        // on.
        for t in (0..200).rev() {
            for axis in 0..4 {
                assert_eq!(a.offset(axis, t).to_bits(), b.offset(axis, t).to_bits());
                assert_eq!(a.offset(axis, t).to_bits(), a.offset(axis, t).to_bits());
            }
        }
    }

    #[test]
    fn jitter_is_bounded_and_seed_separated() {
        let base = DriftSchedule::new(3, vec![], 0.25).unwrap();
        let other = DriftSchedule::new(4, vec![], 0.25).unwrap();
        let mut differs = false;
        for t in 0..500 {
            let o = base.offset(0, t);
            assert!(o.abs() <= 0.25, "jitter {o} out of bound");
            if o.to_bits() != other.offset(0, t).to_bits() {
                differs = true;
            }
        }
        assert!(differs, "different seeds must give different jitter");
        // Axes get independent streams.
        assert_ne!(base.offset(0, 7).to_bits(), base.offset(1, 7).to_bits());
    }

    #[test]
    fn quiet_schedule_is_identity() {
        let q = DriftSchedule::quiet(9);
        let row = [1.0, 2.0, 3.0];
        assert_eq!(q.shifted(&row, 123), row.to_vec());
    }

    #[test]
    fn shift_row_applies_per_axis_offsets() {
        let s = DriftSchedule::new(
            5,
            vec![AxisDrift {
                axis: 1,
                wave: DriftWave::Step {
                    at: 0,
                    amplitude: 10.0,
                },
            }],
            0.0,
        )
        .unwrap();
        let out = s.shifted(&[1.0, 1.0], 3);
        assert_eq!(out, vec![1.0, 11.0]);
        // Axis 1 is beyond a 1-wide row: ignored, not a panic.
        assert_eq!(s.shifted(&[1.0], 3), vec![1.0]);
    }

    #[test]
    fn nano_preset_keeps_params_physical() {
        let schedule = nanoconfinement(11, 20, 100);
        let mut rng = le_linalg::Rng::new(42);
        for i in 0..50 {
            let p = NanoParams::sample(&mut rng);
            for t in [0, 19, 20, 55, 70, 120, 400, i] {
                let shifted = shift_nano(&schedule, &p, t);
                shifted
                    .validate()
                    .unwrap_or_else(|e| panic!("t={t}: {e:?}"));
                assert_eq!(shifted.z_p, p.z_p);
                assert_eq!(shifted.z_n, p.z_n);
            }
        }
        // After saturation the ramp genuinely moves the distribution.
        let p = NanoParams {
            h: 2.5,
            z_p: 1,
            z_n: 1,
            c: 0.5,
            d: 0.6,
        };
        let late = shift_nano(&schedule, &p, 10_000);
        assert!(late.h > p.h + 1.0, "h should have ramped up: {}", late.h);
    }

    #[test]
    fn surveillance_preset_keeps_stream_valid() {
        let schedule = surveillance(13, 10, 52);
        let base = Surveillance {
            reporting_fraction: 0.8,
            noise: 0.1,
            delay_weeks: 1,
        };
        for t in 0..200 {
            let s = shift_surveillance(&schedule, &base, t);
            assert!((0.05..=1.0).contains(&s.reporting_fraction));
            assert!((0.0..=2.0).contains(&s.noise));
            assert!(s.delay_weeks <= 8);
        }
        // Reporting fatigue is real after the ramp saturates.
        let late = shift_surveillance(&schedule, &base, 10_000);
        assert!(late.reporting_fraction < 0.55);
    }
}

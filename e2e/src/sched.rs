//! Seeded request schedules: the RNG, the Zipf popularity sampler and the
//! Poisson arrival process. Everything here is a pure function of the
//! seed, so `--seed n` reproduces the same traffic on every host.

/// SplitMix64. Local rather than the vendored `rand` stand-in so the
/// stream behind a seed cannot change when that stub does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for one purpose (`tag`), so adding draws to
    /// one phase never shifts another phase's inputs.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }
}

/// Zipf over ranks `0..n` with `P(rank k) ∝ 1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of one rank.
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// Arrival offsets (ns from phase start) of a Poisson process at
/// `rate_per_s` over `secs` seconds.
pub fn poisson_arrivals(rng: &mut Rng, rate_per_s: f64, secs: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate_per_s * secs * 1.1) as usize + 16);
    let horizon = secs * 1e9;
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_per_s * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// How a workload picks the record behind each request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Zipf draws over `primed` records, with `fresh_share` of requests
    /// replaced by a record that is used exactly once in the whole run.
    Zipf { primed: usize, fresh_share: f64 },
    /// `distinct` records cycled in order; the position carries over
    /// between phases so a record never comes back sooner than
    /// `distinct` requests later.
    Cycle { distinct: usize },
}

/// The stateful draw behind a [`Mix`]. Record indices `0..primed` are the
/// popular pool; `primed..` are the single-use records.
pub struct Sampler {
    mix: Mix,
    zipf: Option<Zipf>,
    rng: Rng,
    cursor: usize,
    fresh_next: usize,
    fresh_end: usize,
}

/// The single-use records ran out: the daemon answered faster than the
/// pool was sized for.
#[derive(Debug, PartialEq)]
pub struct FreshExhausted;

impl Sampler {
    /// `records` is the total number of generated records available.
    pub fn new(mix: Mix, records: usize, rng: Rng) -> Sampler {
        let (zipf, fresh_next) = match mix {
            Mix::Zipf { primed, .. } => (Some(Zipf::new(primed, 1.0)), primed),
            Mix::Cycle { .. } => (None, records),
        };
        Sampler {
            mix,
            zipf,
            rng,
            cursor: 0,
            fresh_next,
            fresh_end: records,
        }
    }

    pub fn next(&mut self) -> Result<u32, FreshExhausted> {
        match self.mix {
            Mix::Cycle { distinct } => {
                let i = self.cursor % distinct;
                self.cursor += 1;
                Ok(i as u32)
            }
            Mix::Zipf { fresh_share, .. } => {
                if fresh_share > 0.0 && self.rng.unit() < fresh_share {
                    if self.fresh_next >= self.fresh_end {
                        return Err(FreshExhausted);
                    }
                    self.fresh_next += 1;
                    return Ok((self.fresh_next - 1) as u32);
                }
                let zipf = self.zipf.as_ref().expect("Zipf mix has a sampler");
                Ok(zipf.sample(&mut self.rng) as u32)
            }
        }
    }

    /// Single-use records handed out so far.
    pub fn fresh_used(&self) -> usize {
        match self.mix {
            Mix::Zipf { primed, .. } => self.fresh_next - primed,
            Mix::Cycle { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_forks_are_independent() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let base = Rng::new(7);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
        assert_eq!(base.fork(1).next_u64(), base.fork(1).next_u64());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn zipf_rank_one_mass_and_determinism() {
        // Exponent 1 over 2000 ranks: P(rank 1) = 1 / H(2000) ≈ 0.1222.
        let z = Zipf::new(2000, 1.0);
        let h: f64 = (1..=2000).map(|k| 1.0 / k as f64).sum();
        assert!((z.mass(0) - 1.0 / h).abs() < 1e-12);
        let mut rng = Rng::new(42);
        let n = 200_000;
        let draws: Vec<usize> = (0..n).map(|_| z.sample(&mut rng)).collect();
        let first = draws.iter().filter(|&&r| r == 0).count() as f64 / n as f64;
        assert!((first - 1.0 / h).abs() < 0.005, "rank-1 share {first}");
        assert!(draws.iter().all(|&r| r < 2000));
        let mut again = Rng::new(42);
        assert!(draws.iter().all(|&r| r == z.sample(&mut again)));
    }

    #[test]
    fn poisson_mean_rate_and_determinism() {
        let a = poisson_arrivals(&mut Rng::new(3), 4000.0, 10.0);
        // 40,000 expected, standard deviation 200.
        assert!((a.len() as f64 - 40_000.0).abs() < 1_000.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 10_000_000_000);
        assert_eq!(a, poisson_arrivals(&mut Rng::new(3), 4000.0, 10.0));
        assert_ne!(a, poisson_arrivals(&mut Rng::new(4), 4000.0, 10.0));
    }

    #[test]
    fn cycle_never_repeats_within_one_lap() {
        let mut s = Sampler::new(Mix::Cycle { distinct: 5 }, 5, Rng::new(1));
        let lap: Vec<u32> = (0..7).map(|_| s.next().unwrap()).collect();
        assert_eq!(lap, [0, 1, 2, 3, 4, 0, 1]);
        assert_eq!(s.fresh_used(), 0);
    }

    #[test]
    fn fresh_records_are_used_once_and_run_out_loudly() {
        let mix = Mix::Zipf {
            primed: 10,
            fresh_share: 0.5,
        };
        let mut s = Sampler::new(mix, 14, Rng::new(9));
        let mut fresh = Vec::new();
        let exhausted = loop {
            match s.next() {
                Ok(i) if i >= 10 => fresh.push(i),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(exhausted, FreshExhausted);
        assert_eq!(fresh, [10, 11, 12, 13]);
        assert_eq!(s.fresh_used(), 4);
    }
}

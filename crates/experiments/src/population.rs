//! The calibrated resolver population.
//!
//! Every constant here is tied to an observation in the paper; together
//! they reproduce the headline caching numbers (≈70% hits / ≈30% misses,
//! Fig. 3) and the public/non-public miss split (Table 3).

use dike_telemetry::rng::Rng;

/// What kind of first-hop recursive (R1) a vantage point uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum R1Kind {
    /// The Google-like public farm (farm 0).
    PublicGoogle,
    /// One of the other public farms.
    PublicOther,
    /// A shared ISP iterative resolver.
    IspDirect,
    /// A home router forwarding to ISP or public resolvers (multi-level).
    HomeRouter,
    /// An EC2-style resolver that caps TTLs at 60 s.
    TtlCapper,
}

/// The population mix. Defaults are calibrated to the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationMix {
    /// Fractions of probes with 1, 2 and 3 local recursives. The paper's
    /// 9.2k probes yield 15.3k VPs (≈1.67 recursives/probe, Table 1).
    pub recursives_per_probe: [f64; 3],
    /// Fraction of VPs whose R1 is a public resolver. Table 3: nearly
    /// half of all cache misses start at public R1s, so roughly a third
    /// of VPs use one.
    pub frac_public: f64,
    /// Of the public VPs, the share on the Google-like farm ("about
    /// three-quarters of these are from Google's Public DNS", §3.5).
    pub google_share: f64,
    /// Fraction of VPs on a shared ISP iterative resolver.
    pub frac_isp: f64,
    /// Fraction of VPs behind a home-router forwarder (multi-level).
    pub frac_home_router: f64,
    /// Fraction of VPs on EC2-style 60 s TTL cappers (§3.4, ref.\[36\]).
    pub frac_capper: f64,
    /// Probes sharing one ISP resolver.
    pub probes_per_isp: usize,
    /// Of the ISP resolvers, the fraction behaving like BIND (the rest
    /// behave like Unbound).
    pub isp_bind_share: f64,
    /// Of the ISP resolvers, the fraction that caps cached TTLs at 6 h —
    /// the source of the day-long-TTL truncation (Table 2: ~30% of
    /// warm-ups altered at TTL 86400; ref.\[51\]).
    pub isp_sixhour_cap_share: f64,
    /// Of the ISP resolvers, the fraction that flushes its cache
    /// periodically (operator flushes and restarts, §3.1's third
    /// impediment); the interval is sampled around 45 minutes.
    pub isp_flush_share: f64,
    /// Of the farm backends, the fraction with serve-stale enabled (the
    /// paper found early adoption at Google/OpenDNS, §5.3, small enough
    /// that only ~3% of VPs saw stale answers in Experiment A).
    pub farm_serve_stale_share: f64,
    /// Frontends per public farm.
    pub farm_frontends: usize,
    /// Backend iterative resolvers per public farm — the fragment count
    /// a client's queries spread over.
    pub farm_backends: usize,
    /// Number of public farms (farm 0 is the Google-like one).
    pub farm_count: usize,
    /// Of the home routers, the fraction whose upstreams are public farm
    /// frontends instead of ISP resolvers (Table 3's "non-public R1
    /// emerging from Google Rn": about 10% of non-public misses).
    pub home_router_public_upstream_share: f64,
}

impl Default for PopulationMix {
    fn default() -> Self {
        PopulationMix {
            recursives_per_probe: [0.55, 0.30, 0.15],
            frac_public: 0.33,
            google_share: 0.75,
            frac_isp: 0.45,
            frac_home_router: 0.12,
            frac_capper: 0.10,
            probes_per_isp: 3,
            isp_bind_share: 0.5,
            isp_sixhour_cap_share: 0.30,
            isp_flush_share: 0.08,
            farm_serve_stale_share: 0.25,
            farm_frontends: 3,
            farm_backends: 5,
            farm_count: 3,
            home_router_public_upstream_share: 0.15,
        }
    }
}

impl PopulationMix {
    /// Samples how many recursives a probe has (1–3).
    pub(crate) fn sample_recursive_count(&self, rng: &mut Rng) -> usize {
        let x: f64 = rng.random_range(0.0..1.0);
        if x < self.recursives_per_probe[0] {
            1
        } else if x < self.recursives_per_probe[0] + self.recursives_per_probe[1] {
            2
        } else {
            3
        }
    }

    /// Samples the R1 kind for one vantage point.
    pub(crate) fn sample_r1_kind(&self, rng: &mut Rng) -> R1Kind {
        let x: f64 = rng.random_range(0.0..1.0);
        if x < self.frac_public {
            if rng.random_range(0.0..1.0) < self.google_share {
                R1Kind::PublicGoogle
            } else {
                R1Kind::PublicOther
            }
        } else if x < self.frac_public + self.frac_isp {
            R1Kind::IspDirect
        } else if x < self.frac_public + self.frac_isp + self.frac_home_router {
            R1Kind::HomeRouter
        } else {
            R1Kind::TtlCapper
        }
    }

    /// Expected vantage points per probe.
    pub(crate) fn mean_vps_per_probe(&self) -> f64 {
        self.recursives_per_probe[0]
            + 2.0 * self.recursives_per_probe[1]
            + 3.0 * self.recursives_per_probe[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_sums_to_one() {
        let m = PopulationMix::default();
        let kinds = m.frac_public + m.frac_isp + m.frac_home_router + m.frac_capper;
        assert!((kinds - 1.0).abs() < 1e-9, "R1 kind fractions sum to 1");
        let counts: f64 = m.recursives_per_probe.iter().sum();
        assert!((counts - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_vps_matches_paper_scale() {
        // Paper: 9.2k probes → 15.3k VPs ≈ 1.66.
        let m = PopulationMix::default();
        let mean = m.mean_vps_per_probe();
        assert!((1.5..1.8).contains(&mean), "mean {mean}");
    }

    #[test]
    fn sampling_matches_fractions() {
        let m = PopulationMix::default();
        let mut rng = Rng::seed_from_u64(9);
        let n = 20_000;
        let mut public = 0;
        let mut google = 0;
        for _ in 0..n {
            let k = m.sample_r1_kind(&mut rng);
            if matches!(k, R1Kind::PublicGoogle | R1Kind::PublicOther) {
                public += 1;
            }
            if k == R1Kind::PublicGoogle {
                google += 1;
            }
        }
        let frac_public = public as f64 / n as f64;
        assert!((frac_public - m.frac_public).abs() < 0.02, "{frac_public}");
        let google_share = google as f64 / public as f64;
        assert!(
            (google_share - m.google_share).abs() < 0.03,
            "{google_share}"
        );
    }

    #[test]
    fn recursive_count_is_one_to_three() {
        let m = PopulationMix::default();
        let mut rng = Rng::seed_from_u64(10);
        for _ in 0..1000 {
            let c = m.sample_recursive_count(&mut rng);
            assert!((1..=3).contains(&c));
        }
    }
}

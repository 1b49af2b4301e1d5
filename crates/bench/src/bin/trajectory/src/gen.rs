//! Seeded inputs: the XMark documents, the request universe of each
//! workload and the request streams drawn from `--seed`.
//!
//! The same seed gives the same stream. The seed decides the order and the
//! Zipf draws only: rank `r` of a template is always id `r`, so every seed
//! heats the same keys and runs with different seeds stay comparable.

use crate::spec::{self, Workload};
use vamana_xmark::XmarkConfig;

/// splitmix64: small, seedable, good enough to shuffle and draw with.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent [`spec::ZIPF_S`].
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(spec::ZIPF_S);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The XMark configuration of a workload's document.
pub fn doc_config(workload: Workload, smoke: bool) -> XmarkConfig {
    let scale = match (smoke, workload) {
        (true, _) => spec::SMOKE_SCALE,
        (false, Workload::ColdScan) => spec::COLD_SCALE,
        (false, _) => spec::POINT_SCALE,
    };
    XmarkConfig {
        scale,
        seed: spec::DOC_SEED,
    }
}

/// Generates the document as XML text (streamed, no DOM).
pub fn document(config: &XmarkConfig) -> String {
    let mut buf = Vec::new();
    vamana_xmark::generate_to(config, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("the generator emits UTF-8")
}

/// Every distinct request a workload can issue. Requests are addressed by
/// their index here; the lookups of template `t` occupy
/// `templates[t].0 .. templates[t].0 + templates[t].1`, most frequent id
/// first.
pub struct Universe {
    /// Request texts.
    pub texts: Vec<String>,
    /// `(first index, id count)` per parameterised template.
    pub templates: Vec<(usize, usize)>,
    /// Indices of the paper's Q1–Q5.
    pub paper: Vec<usize>,
    /// Indices of the scan queries: S1–S5, then the six regions
    /// (`embed_scan`) or the open auctions (`cold_scan`).
    pub scans: Vec<usize>,
}

impl Universe {
    /// The universe of `workload` over a document generated from `config`.
    pub fn new(workload: Workload, config: &XmarkConfig) -> Universe {
        let mut u = Universe {
            texts: Vec::new(),
            templates: Vec::new(),
            paper: Vec::new(),
            scans: Vec::new(),
        };
        let scan_workload = matches!(workload, Workload::EmbedScan | Workload::ColdScan);
        if !scan_workload {
            let cap = |n: u64| (n as usize).min(spec::IDS_PER_TEMPLATE);
            let counts = [
                cap(config.persons()),
                cap(config.items()),
                cap(config.open_auctions()),
                spec::PROVINCES.len(),
            ];
            for (template, count) in spec::LOOKUPS.iter().zip(counts) {
                u.templates.push((u.texts.len(), count));
                for id in 0..count {
                    let value = if template.contains("province") {
                        spec::PROVINCES[id].to_string()
                    } else {
                        id.to_string()
                    };
                    u.texts.push(template.replace("{}", &value));
                }
            }
        }
        if workload != Workload::EmbedScan {
            for q in spec::PAPER_QUERIES {
                u.paper.push(u.texts.len());
                u.texts.push(q.to_string());
            }
        }
        if scan_workload {
            for q in spec::SCAN_QUERIES {
                u.scans.push(u.texts.len());
                u.texts.push(q.to_string());
            }
        }
        if workload == Workload::EmbedScan {
            for region in spec::REGIONS {
                u.scans.push(u.texts.len());
                u.texts.push(format!("/site/regions/{region}//*"));
            }
        }
        if workload == Workload::ColdScan {
            u.scans.push(u.texts.len());
            u.texts.push(spec::AUCTIONS_SCAN.to_string());
        }
        u
    }

    /// The requests checked against the DOM oracle: the
    /// [`spec::ORACLE_SAMPLE`] most frequent ids of each template and
    /// every fixed query.
    pub fn oracle_sample(&self) -> Vec<usize> {
        let mut sample = Vec::new();
        for &(first, count) in &self.templates {
            sample.extend(first..first + count.min(spec::ORACLE_SAMPLE));
        }
        sample.extend(&self.paper);
        sample.extend(&self.scans);
        sample
    }
}

/// An endless request stream over a [`Universe`], dealt in shuffled blocks
/// so that every stretch of a run holds the same mix:
///
/// - point workloads: 5 Zipf draws per lookup template + Q1–Q5 (80 % / 20 %);
/// - `embed_scan`: every scan once;
/// - `cold_scan`: the six scans and Q1–Q5 alternating.
pub struct Stream<'u> {
    universe: &'u Universe,
    rng: Rng,
    zipfs: Vec<Zipf>,
    block: Vec<usize>,
    next: usize,
}

impl<'u> Stream<'u> {
    /// The stream of `seed` (mixed with `lane` so that two connections of
    /// one run replay different orders of the same mix).
    pub fn new(universe: &'u Universe, seed: u64, lane: u64) -> Stream<'u> {
        Stream {
            universe,
            rng: Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)),
            zipfs: universe
                .templates
                .iter()
                .map(|&(_, count)| Zipf::new(count))
                .collect(),
            block: Vec::new(),
            next: 0,
        }
    }

    /// Draws one id of `template` (used by the writer of `serve_write`).
    pub fn draw(&mut self, template: usize) -> usize {
        self.zipfs[template].sample(&mut self.rng)
    }

    fn refill(&mut self) {
        let u = self.universe;
        self.block.clear();
        self.next = 0;
        if !u.templates.is_empty() {
            for (t, &(first, _)) in u.templates.iter().enumerate() {
                for _ in 0..5 {
                    let id = self.zipfs[t].sample(&mut self.rng);
                    self.block.push(first + id);
                }
            }
            self.block.extend(&u.paper);
            self.rng.shuffle(&mut self.block);
        } else if u.paper.is_empty() {
            self.block.extend(&u.scans);
            self.rng.shuffle(&mut self.block);
        } else {
            let (mut scans, mut paper) = (u.scans.clone(), u.paper.clone());
            self.rng.shuffle(&mut scans);
            self.rng.shuffle(&mut paper);
            let mut paper = paper.into_iter();
            for s in scans {
                self.block.push(s);
                self.block.extend(paper.next());
            }
        }
    }

    /// The next request index.
    pub fn next(&mut self) -> usize {
        if self.next == self.block.len() {
            self.refill();
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_the_mix_is_fixed() {
        let config = doc_config(Workload::EmbedPoint, true);
        let universe = Universe::new(Workload::EmbedPoint, &config);
        let draw = |seed| {
            let mut s = Stream::new(&universe, seed, 0);
            (0..250).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let fixed = draw(3)
            .iter()
            .filter(|i| universe.paper.contains(i))
            .count();
        assert_eq!(fixed, 50, "20% of every block is Q1-Q5");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1024);
        let mut rng = Rng::new(1);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 32).count();
        assert!((5_000..8_000).contains(&hot), "{hot}");
    }
}

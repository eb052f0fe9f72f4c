//! A fixed piece of harness work that times the host, so that set-up time
//! can be stated in seconds of one reference host.
//!
//! Set-up is dominated by policy compilation: building, hashing and
//! ordering many small heap objects in a working set of megabytes. On a
//! shared machine its wall time follows how busy the other tenants keep
//! the cores and caches, and moved by a third within an hour while the code
//! stayed the same. The reference does the same kind of work in harness
//! code right after every set-up, and `setup_s` scales the set-up's wall
//! time by how much faster or slower than nominal the reference ran.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// Median time of the reference on the calibration host (a shared
/// two-vCPU Intel Xeon VM), in seconds.
pub const NOMINAL_S: f64 = 0.16;
/// Paths the reference indexes.
const KEYS: u32 = 200_000;

/// Times the reference: index generated rule-like paths in an ordered map,
/// then count them by shape in a hash map. Returns seconds.
pub fn time() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x5EED);
    let mut by_path: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for i in 0..KEYS {
        let path = format!("/srv/data/y{}/{}", rng.below(100_000), i % 7);
        by_path.entry(path).or_default().push(i);
    }
    let mut shapes: HashMap<usize, usize> = HashMap::new();
    for (path, ids) in &by_path {
        *shapes.entry(path.len() ^ ids.len()).or_default() += 1;
    }
    black_box(shapes.len());
    drop(by_path);
    start.elapsed().as_secs_f64()
}

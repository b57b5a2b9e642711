//! The host-speed yardstick: a fixed reference computation timed before
//! every unit, so that the host's speed at that moment can be divided out of
//! the unit's time.
//!
//! On a shared host, neighbour load stretches every timing by up to 2.3× and
//! changes from second to second, without showing as steal time. The kernel
//! below slows with it: over ten runs of a workload, the ratio of a unit's
//! time to the kernel's spread a quarter to two fifths as much as the unit's
//! time did (`perfbench/README.md`, baseline). The kernel is the
//! benchmark's own code and calls nothing in the repository's crates, so a
//! change to the program never changes its time. It does the kinds of work
//! the simulator does: ordered-map churn with a heap allocation per entry,
//! and breadth-first shortest paths interned in a hash map.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The time one kernel run is scaled to: host-normalised timings are in
/// seconds of a host on which [`time_kernel`] returns this. Any fixed value
/// would do; on the 2-core VM of the README's baseline the kernel took
/// 25–34 ms.
pub const REFERENCE_S: f64 = 0.02;

/// Insert-or-remove operations of the ordered-map part.
const MAP_OPS: u64 = 60_000;
/// Key range of the ordered map (about half of it is live at a time).
const MAP_KEYS: u64 = 20_000;
/// Side of the torus the routes are searched on.
const SIDE: u32 = 16;
/// Route lookups, each interning a new pair or reusing one.
const LOOKUPS: u32 = 3_000;

/// Runs the kernel once and returns its time in seconds.
pub fn time_kernel() -> f64 {
    let start = Instant::now();
    black_box(ordered_map_churn());
    black_box(interned_routes());
    start.elapsed().as_secs_f64()
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

fn ordered_map_churn() -> u64 {
    let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
    let mut map: BTreeMap<u64, Box<[u64; 2]>> = BTreeMap::new();
    let mut sum = 0u64;
    for i in 0..MAP_OPS {
        let key = next() % MAP_KEYS;
        match map.remove(&key) {
            Some(v) => sum = sum.wrapping_add(v[0]),
            None => {
                map.insert(key, Box::new([i, key]));
            }
        }
        if let Some((_, v)) = map.range(next() % MAP_KEYS..).next() {
            sum = sum.wrapping_add(v[1]);
        }
    }
    sum
}

fn neighbours(node: u32) -> [u32; 4] {
    let (x, y) = (node % SIDE, node / SIDE);
    [
        (x + 1) % SIDE + y * SIDE,
        (x + SIDE - 1) % SIDE + y * SIDE,
        x + (y + 1) % SIDE * SIDE,
        x + (y + SIDE - 1) % SIDE * SIDE,
    ]
}

/// The nodes of a shortest path from `src` to `dst`, `src` excluded.
fn shortest_path(src: u32, dst: u32) -> Vec<u32> {
    let mut parent = vec![u32::MAX; (SIDE * SIDE) as usize];
    let mut queue = VecDeque::from([src]);
    parent[src as usize] = src;
    while let Some(node) = queue.pop_front() {
        if node == dst {
            break;
        }
        for next in neighbours(node) {
            if parent[next as usize] == u32::MAX {
                parent[next as usize] = node;
                queue.push_back(next);
            }
        }
    }
    let mut path = Vec::new();
    let mut node = dst;
    while node != src {
        path.push(node);
        node = parent[node as usize];
    }
    path
}

fn interned_routes() -> u64 {
    let mut next = xorshift(0x2545_f491_4f6c_dd1d);
    let nodes = u64::from(SIDE * SIDE);
    let mut routes: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    let mut hops = 0u64;
    for _ in 0..LOOKUPS {
        let (src, dst) = ((next() % nodes) as u32, (next() % nodes) as u32);
        hops += routes.entry((src, dst)).or_insert_with(|| shortest_path(src, dst)).len() as u64;
    }
    hops
}

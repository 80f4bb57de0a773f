//! Hot-spot aggregation: where token volume actually concentrates.
//!
//! A [`RunProfile`] accumulates per-(phase, node) firing counts,
//! per-(phase, edge) token counts, per-class token totals, spill counts,
//! a ring-occupancy histogram and calendar-queue marks over one
//! simulation. Rankings ([`RunProfile::top_nodes`] /
//! [`RunProfile::top_edges`]) break count ties by ascending key, so the
//! tables are total-ordered and deterministic for any thread count.

use crate::hist::Histogram;
use dmt_common::json::Json;
use std::collections::HashMap;

/// The communication class of a token-carrying edge, keyed by the
/// producing node: ordinary dataflow fan-out, elevator (direct
/// inter-thread register communication, §3.1) or eLDST (memory-based
/// inter-thread communication, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum EdgeClass {
    /// Ordinary dataflow edge.
    Direct = 0,
    /// Out of an elevator node.
    Elevator = 1,
    /// Out of an eLDST unit.
    Eldst = 2,
}

impl EdgeClass {
    /// All classes, in serialization order.
    pub const ALL: [EdgeClass; 3] = [EdgeClass::Direct, EdgeClass::Elevator, EdgeClass::Eldst];

    /// The stable artifact key.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            EdgeClass::Direct => "direct",
            EdgeClass::Elevator => "elevator",
            EdgeClass::Eldst => "eldst",
        }
    }
}

/// Which bounded store overflowed into its spill map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum StoreKind {
    /// A matching-store ring.
    Match = 0,
    /// An eLDST token-buffer ring.
    Eldst = 1,
}

impl StoreKind {
    /// All kinds, in serialization order.
    pub const ALL: [StoreKind; 2] = [StoreKind::Match, StoreKind::Eldst];

    /// The stable artifact key.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            StoreKind::Match => "matching_store",
            StoreKind::Eldst => "eldst",
        }
    }
}

/// One run's traffic aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Firing count per (phase, node).
    pub node_fires: HashMap<(u32, u32), u64>,
    /// Token count per (phase, src node, dst node).
    pub edge_tokens: HashMap<(u32, u32, u32), u64>,
    /// Token totals per [`EdgeClass`].
    pub class_tokens: [u64; 3],
    /// Spill totals per [`StoreKind`]. Always 0 from the fabric engine,
    /// whose matching and eLDST rings grow instead of spilling; the field
    /// stays so the `spills` key of the profile artifact keeps its schema.
    pub spills: [u64; 2],
    /// Occupied-ring-slot counts at sample boundaries.
    pub ring_occupancy: Histogram,
    /// Peak calendar-queue depth observed.
    pub calendar_high_water: u64,
    /// Total events ever scheduled on the calendar queue.
    pub calendar_scheduled: u64,
    /// Phases observed.
    pub phases: u32,
    /// Final simulation cycle.
    pub cycles: u64,
}

/// Sorts a count map's entries most-trafficked first (ties by ascending
/// key) and keeps the top `k`.
fn ranked<K: Ord + Copy>(map: &HashMap<K, u64>, k: usize) -> Vec<(K, u64)> {
    let mut rows: Vec<(K, u64)> = map.iter().map(|(&key, &n)| (key, n)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(k);
    rows
}

impl RunProfile {
    /// The `k` hottest nodes: `((phase, node), fires)`, descending.
    #[must_use]
    pub fn top_nodes(&self, k: usize) -> Vec<((u32, u32), u64)> {
        ranked(&self.node_fires, k)
    }

    /// The `k` hottest edges: `((phase, src, dst), tokens)`, descending.
    #[must_use]
    pub fn top_edges(&self, k: usize) -> Vec<((u32, u32, u32), u64)> {
        ranked(&self.edge_tokens, k)
    }

    /// Total tokens across all classes.
    #[must_use]
    pub fn total_tokens(&self) -> u64 {
        self.class_tokens.iter().sum()
    }

    /// Serializes the profile with its top-`k` node and edge rankings —
    /// the per-job body of `BENCH_profile.json`. Fully deterministic
    /// (thread-count- and host-invariant).
    #[must_use]
    pub fn to_json(&self, k: usize) -> Json {
        let mut tokens = Json::obj();
        for class in EdgeClass::ALL {
            tokens = tokens.with(class.key(), self.class_tokens[class as usize]);
        }
        let mut spills = Json::obj();
        for kind in StoreKind::ALL {
            spills = spills.with(kind.key(), self.spills[kind as usize]);
        }
        Json::obj()
            .with("cycles", self.cycles)
            .with("phases", self.phases)
            .with("tokens", tokens)
            .with("spills", spills)
            .with("ring_occupancy", self.ring_occupancy.to_json())
            .with(
                "calendar",
                Json::obj()
                    .with("high_water", self.calendar_high_water)
                    .with("scheduled", self.calendar_scheduled),
            )
            .with(
                "top_nodes",
                Json::Arr(
                    self.top_nodes(k)
                        .into_iter()
                        .map(|((phase, node), fires)| {
                            Json::obj()
                                .with("phase", phase)
                                .with("node", node)
                                .with("fires", fires)
                        })
                        .collect(),
                ),
            )
            .with(
                "top_edges",
                Json::Arr(
                    self.top_edges(k)
                        .into_iter()
                        .map(|((phase, src, dst), tokens)| {
                            Json::obj()
                                .with("phase", phase)
                                .with("src", src)
                                .with("dst", dst)
                                .with("tokens", tokens)
                        })
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> RunProfile {
        let mut p = RunProfile {
            cycles: 100,
            phases: 1,
            ..Default::default()
        };
        p.edge_tokens.insert((0, 1, 2), 50);
        p.edge_tokens.insert((0, 2, 3), 80);
        p.edge_tokens.insert((0, 0, 1), 80);
        p.node_fires.insert((0, 2), 9);
        p.node_fires.insert((0, 1), 4);
        p.class_tokens = [200, 10, 0];
        p
    }

    #[test]
    fn rankings_are_descending_with_key_tiebreak() {
        let p = profile();
        assert_eq!(
            p.top_edges(10),
            vec![((0, 0, 1), 80), ((0, 2, 3), 80), ((0, 1, 2), 50)]
        );
        assert_eq!(p.top_edges(1), vec![((0, 0, 1), 80)]);
        assert_eq!(p.top_nodes(10), vec![((0, 2), 9), ((0, 1), 4)]);
        assert_eq!(p.total_tokens(), 210);
    }

    #[test]
    fn json_carries_rankings_and_class_totals() {
        let doc = profile().to_json(2);
        assert_eq!(doc.get("cycles").unwrap().as_u64(), Some(100));
        let tokens = doc.get("tokens").unwrap();
        assert_eq!(tokens.get("direct").unwrap().as_u64(), Some(200));
        assert_eq!(tokens.get("elevator").unwrap().as_u64(), Some(10));
        let edges = doc.get("top_edges").unwrap().as_arr().unwrap();
        assert_eq!(edges.len(), 2, "top-k truncates");
        assert_eq!(edges[0].get("tokens").unwrap().as_u64(), Some(80));
        assert_eq!(edges[0].get("src").unwrap().as_u64(), Some(0));
        // The document round-trips through the parser.
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}

//! The network: switches + links + radios stepped one cycle at a time.
//!
//! [`Network::step`] advances the state machine one cycle through one
//! of two pipelines, chosen once at construction:
//!
//! * the masked pipeline, whenever every switch fits the 128-bit VC
//!   masks (every paper configuration): word-bitset active sets
//!   (ascending bit iteration is sorted for free), fused mask-driven
//!   switch phases, lazy link-bandwidth queries;
//! * [`Network::step_reference`] otherwise: active-set sweeps + sorts
//!   per cycle, the switches' three-pass phases.
//!
//! The two are decision-identical — same grants, same moves, same
//! meter order, bit for bit (pinned by `tests/fast_step.rs` and the
//! golden corpus) — so the choice changes wall-clock only.

use serde::{Deserialize, Serialize, Value};
use wimnet_energy::{ChargeBatch, Energy, EnergyCategory, EnergyMeter, EnergyModel, Power};
use wimnet_routing::Routes;
use wimnet_telemetry::{MacCounters, NetworkTelemetry};
use wimnet_topology::{EdgeKind, MultichipLayout};

use crate::active::ActiveSet;
use crate::arbiter::RoundRobin;
use crate::error::NocError;
use crate::flit::{Flit, FlitKind, PacketId};
use crate::link::{Link, LinkDelivery};
use crate::packet::{ArrivedPacket, PacketDesc, Reassembler};
use crate::radio::{
    MediumAction, MediumActions, MediumView, RadioId, RadioTx, RadioView, RxVcView,
    SharedMedium, TxVcView,
};
use crate::ring::RingSlab;
use crate::stats::NetworkStats;
use crate::switch::{OutPortSpec, RouteEntry, StMove, Switch, SwitchState, VaGrant};

/// Sets bit `i` of a word bitset.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// Clears bit `i` of a word bitset.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1u64 << (i & 63));
}

/// Set-bit indices of a word bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&b| {
            let rest = b & (b - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |b| (w << 6) + b.trailing_zeros() as usize)
    })
}

/// Words needed for an `n`-bit bitset.
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// How wireless edges of the topology are realised by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WirelessMode {
    /// Radio ports drained by an attached [`SharedMedium`] (the §III.D
    /// MAC models — serialized channel or per-WI concurrent links).
    Medium,
    /// Each wireless edge becomes an ordinary point-to-point link of the
    /// given rate/latency, with per-flit energy charged at the
    /// transceiver's pJ/bit.  This is the model the paper's *evaluation*
    /// magnitudes imply (see `wimnet-wireless` and DESIGN.md §3); MAC
    /// overhead is not modelled here.
    PointToPoint {
        /// Link bandwidth in flits per cycle.
        rate: f64,
        /// Link latency in cycles.
        latency: u64,
        /// Total flits per cycle the whole wireless band can carry
        /// concurrently (channelisation of the 16 GHz band).  This is
        /// what keeps "the physical bandwidth of the wireless
        /// interconnections … constant regardless of the number of
        /// chips" (§IV.C).
        max_concurrent: u32,
    },
}

/// Engine configuration: the paper's §IV simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Virtual channels per port (paper: 8).
    pub vcs: usize,
    /// Buffer depth per VC in flits (paper: 16).
    pub buf_depth: usize,
    /// Flit width in bits (paper: 32).
    pub flit_bits: u32,
    /// Depth of the wireless-interface transmit buffers per VC.  The
    /// control-packet MAC works with the standard depth; the token MAC
    /// baseline needs whole packets buffered (§III.D), so its experiments
    /// raise this.
    pub radio_tx_depth: usize,
    /// How wireless edges are realised.
    pub wireless_mode: WirelessMode,
    /// Technology energy constants.
    pub energy: EnergyModel,
}

impl NocConfig {
    /// The paper's configuration: 8 VCs × 16-flit buffers, 32-bit flits,
    /// 65 nm energy model at 2.5 GHz.
    pub fn paper() -> Self {
        NocConfig {
            vcs: 8,
            buf_depth: 16,
            flit_bits: 32,
            radio_tx_depth: 16,
            wireless_mode: WirelessMode::Medium,
            energy: EnergyModel::paper_65nm(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] when a field is zero.
    pub fn validate(&self) -> Result<(), NocError> {
        if self.vcs == 0 {
            return Err(NocError::InvalidConfig { what: "vcs must be positive" });
        }
        if self.buf_depth == 0 {
            return Err(NocError::InvalidConfig { what: "buf_depth must be positive" });
        }
        if self.flit_bits == 0 {
            return Err(NocError::InvalidConfig { what: "flit_bits must be positive" });
        }
        if self.radio_tx_depth == 0 {
            return Err(NocError::InvalidConfig {
                what: "radio_tx_depth must be positive",
            });
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper()
    }
}

/// Where credits for a freed input-VC slot must be returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Upstream {
    /// Local injection port: the injector checks space directly.
    Local,
    /// A wired link from another switch's output port.
    Wired { switch: usize, port: usize },
    /// The wireless medium: the MAC reads occupancy from the view.
    Radio,
}

/// Checkpointed dynamic state of one wireless interface's transmit side
/// (see [`NetworkState`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RadioTxState {
    /// Per-VC FIFO contents, front to back.
    pub lanes: Vec<Vec<(Flit, RadioId)>>,
    /// Per-VC FIFO capacities (fixed at construction, stored for the
    /// restore-time shape check).
    pub capacities: Vec<usize>,
    /// Sticky per-VC wormhole target (head locks it, tail clears it).
    pub target_by_vc: Vec<Option<RadioId>>,
}

/// Complete dynamic state of a [`Network`], detached from the static
/// tables (`Network::new` rebuilds those from the layout + routes; a
/// snapshot only carries what a run mutates).
///
/// Captured between cycles — per-cycle scratch and the charge batch are
/// empty at that point and deliberately excluded.  Restoring into a
/// freshly built network for the same layout/routes/config resumes the
/// run bit-for-bit (see `wimnet_core::checkpoint`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkState {
    /// Completed cycles.
    pub now: u64,
    /// Per-switch buffers, credits, allocation cursors and busy sets.
    pub switches: Vec<SwitchState>,
    /// Per-link fractional credit accumulators.
    pub link_credits: Vec<f64>,
    /// In-flight wire pipelines, one lane per link.
    pub flight_lanes: Vec<Vec<LinkDelivery>>,
    /// In-flight lane capacities.
    pub flight_caps: Vec<usize>,
    /// Radio TX FIFOs and wormhole targets, in [`RadioId`] order.
    pub radios: Vec<RadioTxState>,
    /// Per-medium MAC state as a schema-free serde value (each MAC
    /// encodes and decodes its own representation via
    /// [`SharedMedium::state_value`]).
    pub media: Vec<Value>,
    /// Source queues, one lane per endpoint.
    pub inj_lanes: Vec<Vec<Flit>>,
    /// Source-queue lane capacities (these grow on demand).
    pub inj_caps: Vec<usize>,
    /// Per-endpoint in-progress injection VC (wormhole stickiness).
    pub inj_active_vc: Vec<Option<usize>>,
    /// Per-endpoint injection round-robin cursors.
    pub inj_cursors: Vec<usize>,
    /// Next packet id to assign.
    pub next_packet: u64,
    /// Partially delivered packets.
    pub reassembler: Reassembler,
    /// Delivered packets not yet drained by the caller.
    pub arrivals: Vec<ArrivedPacket>,
    /// Statistics (lifetime + measurement window).
    pub stats: NetworkStats,
    /// Energy meter (exact integer limbs — restores bit-for-bit).
    pub meter: EnergyMeter,
    /// Flits accepted and not yet delivered.
    pub flits_in_network: u64,
    /// Flits queued at sources.
    pub backlog_flits: u64,
    /// Flits buffered in radio TX FIFOs.
    pub radio_backlog_flits: u64,
    /// Cycles skipped by fast-forward.
    pub ff_cycles: u64,
    /// Last cycle any flit moved.
    pub last_progress: u64,
    /// Active-set membership, in insertion order (restoring by replayed
    /// insertion reproduces the dense lists exactly).  Only the
    /// reference pipeline prunes the dense lists; under the masked one
    /// they are conservative supersets.
    pub active_links: Vec<usize>,
    /// Active switches, in insertion order.
    pub active_switches: Vec<usize>,
    /// Active injectors, in insertion order.
    pub active_injectors: Vec<usize>,
    /// Word-bitset mirror of the link active set (pruned only by the
    /// masked pipeline, a conservative superset under the reference
    /// one — captured verbatim).
    pub links_mask: Vec<u64>,
    /// Word-bitset mirror of the switch active set.
    pub switch_mask: Vec<u64>,
    /// Word-bitset mirror of the injector active set.
    pub inj_mask: Vec<u64>,
}

/// The assembled multichip network.
///
/// See the crate-level example for typical use: build from a layout and
/// routes, optionally [`Network::attach_medium`] for wireless
/// architectures, then [`Network::inject`] and [`Network::step`].
pub struct Network {
    cfg: NocConfig,
    now: u64,
    switches: Vec<Switch>,
    /// Flattened forwarding LUT: entry for (switch `si`, destination
    /// `d`) lives at `si * n + d`.  One contiguous allocation replaces
    /// the former per-switch row vectors (and the take/put-back dance
    /// their borrows forced), keeping RC lookups on hot cache lines.
    lut: Box<[RouteEntry]>,
    links: Vec<Link>,
    link_dst: Vec<(usize, usize)>,
    /// Per-switch global-port offsets: switch `si`'s ports occupy global
    /// ids `port_base[si] .. port_base[si + 1]`.  The flat port tables
    /// below are all indexed by global port id, so the run-time layout
    /// matches the switches' own flat `port * vcs + vc` slabs (one
    /// contiguous array per concern instead of `Vec<Vec<…>>`).
    port_base: Vec<usize>,
    /// Outgoing link per global port (`None` for the local sink and the
    /// radio port).
    out_link: Vec<Option<usize>>,
    /// Per global port: does this port transmit on the shared wireless
    /// band (point-to-point mode only)?
    band_port: Vec<bool>,
    /// Where credits for a freed input-VC slot must be returned, per
    /// global port.
    upstream: Vec<Upstream>,
    /// Per-flit-hop meter charges, precomputed per global port at
    /// construction (switch traversal first, then the port's link
    /// crossing, in exactly the order the unbatched meter calls used).
    /// Global port `gp` owns `flit_charges[start .. start + len]` with
    /// `(start, len) = charge_span[gp]`.
    flit_charges: Vec<(EnergyCategory, Energy)>,
    charge_span: Vec<(u32, u32)>,
    radios: Vec<RadioTx>,
    radio_of_switch: Vec<Option<(RadioId, usize)>>,
    radio_by_node: Vec<Option<RadioId>>,
    media: Vec<Box<dyn SharedMedium>>,
    /// Flits on the wire, slabbed: lane `li` is link `li`'s in-flight
    /// pipeline (the links themselves keep only credit state).
    flight: RingSlab<LinkDelivery>,
    /// Source queues, slabbed: lane `ni` holds endpoint `ni`'s generated
    /// flits awaiting injection (grows on demand — source queues are
    /// workload-bounded, not credit-bounded).
    inj_pending: RingSlab<Flit>,
    inj_active_vc: Vec<Option<usize>>,
    inj_rr: Vec<RoundRobin>,
    next_packet: u64,
    reassembler: Reassembler,
    arrivals: Vec<ArrivedPacket>,
    stats: NetworkStats,
    meter: EnergyMeter,
    switch_static: Power,
    serial_static: Power,
    wireless_idle_static: Power,
    flits_in_network: u64,
    /// Flits generated but still queued at their sources (the O(1)
    /// mirror of summing `inj_pending` lengths).
    backlog_flits: u64,
    /// Flits buffered in radio TX FIFOs (the O(1) mirror of summing
    /// the per-VC FIFO lengths; a subset of `flits_in_network`).
    /// Maintained so the [`SharedMedium::is_quiescent`] precondition —
    /// every WI transmit buffer empty — is *checked* state, not an
    /// inference.
    radio_backlog_flits: u64,
    /// Cycles skipped by [`Network::fast_forward`] since construction.
    ff_cycles: u64,
    last_progress: u64,
    // --- Active-set tracking: only components that can make progress
    // are visited each cycle (see `active` module and docs/engine.md).
    active_links: ActiveSet,
    active_switches: ActiveSet,
    active_injectors: ActiveSet,
    // --- Word-bitset mirrors of the active sets, used by the masked
    // pipeline: ascending bit iteration replaces the per-cycle sweep +
    // sort.  Every insert site sets both representations; each pipeline
    // prunes only its own (the masked one clears bits at visit time,
    // the reference one sweeps the dense lists), so the other
    // representation stays a conservative superset — the invariant
    // either sweep needs — and the pipelines can be mixed freely.
    links_mask: Vec<u64>,
    switch_mask: Vec<u64>,
    inj_mask: Vec<u64>,
    /// Every switch fits the 128-bit VC masks ([`Switch::supports_mask`]),
    /// so [`Network::step`] runs the masked pipeline; fixed at
    /// construction.
    masked: bool,
    // --- Preallocated per-cycle scratch: the steady-state step() makes
    // no heap allocations.
    scratch_order: Vec<usize>,
    scratch_arrivals: Vec<LinkDelivery>,
    scratch_grants: Vec<VaGrant>,
    scratch_moves: Vec<StMove>,
    scratch_avail: Vec<u32>,
    scratch_credits: Vec<(usize, usize, usize)>,
    /// Reusable medium snapshot: refreshed in place each cycle a shared
    /// medium is attached, so MAC runs allocate nothing on the view
    /// path after the first cycle.
    scratch_view: MediumView,
    /// Reusable MAC action list (cleared per medium per cycle).
    scratch_actions: MediumActions,
    /// Per-cycle batched meter charges: phase 4 logs per-flit-hop
    /// energies here (run-length encoded) and drains them into the
    /// meter once per cycle, replaying the exact unbatched add order so
    /// totals stay bit-identical (see [`ChargeBatch`]).
    charge_log: ChargeBatch,
    /// Optional observability sink (`docs/observability.md`).  The
    /// disabled path is a branch on `None` at every hook; the enabled
    /// path only reads decision state the engine computed anyway and
    /// increments sink-local counters — no RNG, meter, stats or
    /// allocator touch on the hot path — so outcomes are bit-identical
    /// either way (the zero-observer-effect contract, proven in
    /// `tests/determinism.rs`).  Deliberately absent from
    /// [`NetworkState`]: telemetry is observational, not engine state.
    telemetry: Option<Box<NetworkTelemetry>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("switches", &self.switches.len())
            .field("links", &self.links.len())
            .field("radios", &self.radios.len())
            .field("media", &self.media.len())
            .field("flits_in_network", &self.flits_in_network)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds the cycle-accurate network for `layout` with forwarding
    /// tables `routes`.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] for bad configs or when `routes` does
    /// not cover the layout's graph.
    pub fn new(
        layout: &MultichipLayout,
        routes: Routes,
        cfg: NocConfig,
    ) -> Result<Self, NocError> {
        cfg.validate()?;
        let graph = layout.graph();
        if routes.node_count() != graph.node_count() {
            return Err(NocError::InvalidConfig {
                what: "routes were built for a different graph",
            });
        }
        let n = graph.node_count();

        let p2p = matches!(cfg.wireless_mode, WirelessMode::PointToPoint { .. });

        // Radios, in WiId order (RadioId == WiId index by construction).
        // Point-to-point mode needs no radios: wireless edges become
        // ordinary links below.
        let mut radio_of_switch: Vec<Option<(RadioId, usize)>> = vec![None; n];
        let mut radio_by_node: Vec<Option<RadioId>> = vec![None; n];
        let mut radios = Vec::new();
        if !p2p {
            for wi in layout.wireless_interfaces() {
                let rid = RadioId(wi.id.index());
                radio_by_node[wi.node.index()] = Some(rid);
                radios.push(RadioTx::new(wi.node, cfg.vcs, cfg.radio_tx_depth));
            }
        }

        // Ports: 0 = local, then wired edges in adjacency order, then the
        // radio port for WI switches.
        let mut switches = Vec::with_capacity(n);
        let mut links: Vec<Link> = Vec::new();
        let mut link_dst: Vec<(usize, usize)> = Vec::new();
        // edge -> (port at a, port at b) for wired edges.
        let mut port_of_edge: Vec<Option<(usize, usize)>> = vec![None; graph.edge_count()];

        // First pass: decide port numbering.  The per-node wired-edge
        // lists are a CSR table (offsets + one flat edge-id array), so
        // build-time layout matches the flat run-time port tables.
        let mut wired_off = vec![0usize; n + 1];
        for node in graph.node_ids() {
            for &(_, eid) in graph.neighbors(node) {
                let e = graph.edge(eid).expect("edge exists");
                if e.kind != EdgeKind::Wireless || p2p {
                    wired_off[node.index() + 1] += 1;
                }
            }
        }
        for i in 0..n {
            wired_off[i + 1] += wired_off[i];
        }
        let mut wired_edges = vec![0usize; wired_off[n]];
        {
            let mut fill = wired_off.clone();
            for node in graph.node_ids() {
                for &(_, eid) in graph.neighbors(node) {
                    let e = graph.edge(eid).expect("edge exists");
                    if e.kind != EdgeKind::Wireless || p2p {
                        wired_edges[fill[node.index()]] = eid.index();
                        fill[node.index()] += 1;
                    }
                }
            }
        }
        let wired_of = |ni: usize| &wired_edges[wired_off[ni]..wired_off[ni + 1]];
        for node in graph.node_ids() {
            let ni = node.index();
            for (k, &eid) in wired_of(ni).iter().enumerate() {
                let port = 1 + k;
                let e = graph.edge(wimnet_topology::EdgeId(eid)).expect("edge exists");
                let slot = &mut port_of_edge[eid];
                if node == e.a {
                    match slot {
                        Some((pa, _)) => *pa = port,
                        None => *slot = Some((port, usize::MAX)),
                    }
                } else {
                    match slot {
                        Some((_, pb)) => *pb = port,
                        None => *slot = Some((usize::MAX, port)),
                    }
                }
            }
        }

        // Second pass: build switches, links and the flat global-port
        // tables (out-link, band flag, upstream, per-flit meter charges).
        let bits = u64::from(cfg.flit_bits);
        let traversal = cfg.energy.switch_traversal(bits);
        let mut port_base = Vec::with_capacity(n + 1);
        port_base.push(0usize);
        let mut out_link: Vec<Option<usize>> = Vec::new();
        let mut band_port: Vec<bool> = Vec::new();
        let mut upstream: Vec<Upstream> = Vec::new();
        let mut flit_charges: Vec<(EnergyCategory, Energy)> = Vec::new();
        let mut charge_span: Vec<(u32, u32)> = Vec::new();
        let push_charges = |flit_charges: &mut Vec<(EnergyCategory, Energy)>,
                                charge_span: &mut Vec<(u32, u32)>,
                                link_charge: &[(EnergyCategory, Energy)]| {
            let start = u32::try_from(flit_charges.len()).expect("charge table fits u32");
            flit_charges.push((EnergyCategory::SwitchDynamic, traversal));
            flit_charges.extend_from_slice(link_charge);
            charge_span.push((start, 1 + link_charge.len() as u32));
        };
        for node in graph.node_ids() {
            let ni = node.index();
            let wired = wired_of(ni);
            let has_radio = radio_by_node[ni].is_some();
            let port_count = 1 + wired.len() + usize::from(has_radio);

            let mut specs = Vec::with_capacity(port_count);
            // Core ejection drains one flit per cycle; a memory logic
            // die sinks two — it must at least absorb its own 1.6
            // flit/cycle wide I/O (the four DRAM channels behind it
            // take 128 Gbps in aggregate, §IV.A).
            let sink_grants = match graph.node(node).expect("node exists").kind {
                wimnet_topology::NodeKind::MemoryLogicDie { .. } => 2,
                wimnet_topology::NodeKind::Core { .. } => 1,
            };
            specs.push(OutPortSpec {
                credit: cfg.buf_depth as u32,
                is_sink: true,
                max_grants: sink_grants,
            });
            // Port 0: local ejection — no link, no band, local credits,
            // and a flit hop charges only the switch traversal.
            out_link.push(None);
            band_port.push(false);
            upstream.push(Upstream::Local);
            push_charges(&mut flit_charges, &mut charge_span, &[]);

            for &eid in wired {
                let e = graph.edge(wimnet_topology::EdgeId(eid)).expect("edge exists");
                let (rate, latency) = match (e.kind, cfg.wireless_mode) {
                    (
                        EdgeKind::Wireless,
                        WirelessMode::PointToPoint { rate, latency, .. },
                    ) => (rate, latency),
                    _ => Link::paper_rate_latency(e.kind),
                };
                specs.push(OutPortSpec {
                    credit: cfg.buf_depth as u32,
                    is_sink: false,
                    max_grants: rate.ceil().max(1.0) as u32,
                });
                // Outgoing link from this node over edge eid.
                let (pa, pb) = port_of_edge[eid].expect("both endpoints numbered");
                let (dst_sw, dst_port) = if node == e.a {
                    (e.b.index(), pb)
                } else {
                    (e.a.index(), pa)
                };
                let li = links.len();
                links.push(Link::new(
                    wimnet_topology::EdgeId(eid),
                    e.kind,
                    e.length_mm,
                    rate,
                    latency,
                ));
                link_dst.push((dst_sw, dst_port));
                out_link.push(Some(li));
                band_port.push(e.kind == EdgeKind::Wireless);
                // The reverse link fills the upstream entry of this
                // port (fixed up to the true source below).
                upstream.push(Upstream::Wired { switch: dst_sw, port: dst_port });
                // Per-flit meter charges of this port, in the order the
                // unbatched hot path issued them: traversal, then the
                // link-kind crossing (receiver decode before transmit
                // for point-to-point wireless).
                let link_charge: &[(EnergyCategory, Energy)] = match e.kind {
                    EdgeKind::Mesh => {
                        &[(EnergyCategory::Wire, cfg.energy.wire(bits, e.length_mm))]
                    }
                    EdgeKind::Interposer => &[(
                        EnergyCategory::InterposerWire,
                        cfg.energy.interposer_wire(bits, e.length_mm),
                    )],
                    EdgeKind::SerialIo => {
                        &[(EnergyCategory::SerialIo, cfg.energy.serial_io(bits))]
                    }
                    EdgeKind::WideIo => {
                        &[(EnergyCategory::WideIo, cfg.energy.wide_io(bits))]
                    }
                    EdgeKind::Wireless => &[
                        (EnergyCategory::WirelessRx, cfg.energy.wireless_rx(bits)),
                        (EnergyCategory::WirelessTx, cfg.energy.wireless_tx(bits)),
                    ],
                };
                push_charges(&mut flit_charges, &mut charge_span, link_charge);
            }
            if has_radio {
                let port = port_count - 1;
                let rid = radio_by_node[ni].expect("has radio");
                specs.push(OutPortSpec {
                    credit: cfg.radio_tx_depth as u32,
                    is_sink: false,
                    max_grants: 1,
                });
                out_link.push(None);
                band_port.push(false);
                upstream.push(Upstream::Radio);
                // Radio-port hops charge traversal only; the medium
                // meters its own TX/RX energy.
                push_charges(&mut flit_charges, &mut charge_span, &[]);
                radio_of_switch[ni] = Some((rid, port));
            }
            switches.push(Switch::new(node, cfg.vcs, cfg.buf_depth, &specs));
            port_base.push(out_link.len());
        }
        debug_assert_eq!(charge_span.len(), out_link.len());

        // Upstream entries above point at the *destination* of our
        // outgoing link; what we need is the *source* of the incoming
        // link per port.  For wired edges both directions exist and the
        // port numbering is symmetric per endpoint, so incoming on port p
        // of node x comes from the peer's port that carries the same
        // edge.  Recompute cleanly:
        for node in graph.node_ids() {
            let ni = node.index();
            for (k, &eid) in wired_of(ni).iter().enumerate() {
                let port = 1 + k;
                let e = graph.edge(wimnet_topology::EdgeId(eid)).expect("edge exists");
                let (pa, pb) = port_of_edge[eid].expect("numbered");
                let (src_sw, src_port) = if node == e.a {
                    (e.b.index(), pb)
                } else {
                    (e.a.index(), pa)
                };
                upstream[port_base[ni] + port] =
                    Upstream::Wired { switch: src_sw, port: src_port };
            }
        }

        // Forwarding LUT, flattened: entry (switch, dest) at
        // `switch * n + dest`, translated row-by-row from the routing
        // crate's equally flat tables.
        let mut lut = Vec::with_capacity(n * n);
        for node in graph.node_ids() {
            let ni = node.index();
            for (di, hop) in routes.row(node).iter().enumerate() {
                let Some((next, eid)) = *hop else {
                    debug_assert_eq!(di, ni, "only the diagonal lacks a next hop");
                    lut.push(RouteEntry { port: 0, next: node });
                    continue;
                };
                let e = graph.edge(eid).expect("edge exists");
                let port = if e.kind == EdgeKind::Wireless && !p2p {
                    radio_of_switch[ni]
                        .expect("wireless next hop implies a radio port")
                        .1
                } else {
                    let (pa, pb) = port_of_edge[eid.index()].expect("wired edge numbered");
                    if node == e.a {
                        pa
                    } else {
                        pb
                    }
                };
                lut.push(RouteEntry { port, next });
            }
        }

        // Static power: switches (radio TX buffers scale the per-port
        // share by their depth) and serial I/O endpoints.
        let mut switch_static = Power::ZERO;
        for sw in &switches {
            switch_static += cfg.energy.switch_static(sw.port_count());
        }
        let depth_ratio = cfg.radio_tx_depth as f64 / cfg.buf_depth as f64;
        for _ in &radios {
            switch_static += cfg.energy.switch_static_per_port * depth_ratio;
        }
        let mut serial_static = Power::ZERO;
        for _ in graph.edges_of_kind(EdgeKind::SerialIo) {
            serial_static += cfg.energy.serial_io_static;
        }
        // In point-to-point mode the WI transceivers' always-on front
        // ends are charged here (no medium exists to account for them).
        let wireless_idle_static = if p2p {
            cfg.energy.wireless_idle * layout.wireless_interfaces().len() as f64
        } else {
            Power::ZERO
        };

        let max_ports = switches.iter().map(Switch::port_count).max().unwrap_or(0);
        // Ring-slab fill values: the payload types have no meaningful
        // default, so unoccupied slots hold an explicit zeroed flit.
        let fill_flit = Flit {
            packet: PacketId(0),
            kind: FlitKind::Body,
            seq: 0,
            src: wimnet_topology::NodeId(0),
            dest: wimnet_topology::NodeId(0),
            created_at: 0,
        };
        let fill_delivery = LinkDelivery { flit: fill_flit, vc: 0, arrives_at: 0 };
        let flight_caps: Vec<usize> = links.iter().map(Link::flight_capacity).collect();
        // Links start active (bitset full) so their bandwidth credit
        // warms up exactly as the full-scan engine did.
        let mut links_mask = vec![0u64; words_for(links.len())];
        for li in 0..links.len() {
            set_bit(&mut links_mask, li);
        }
        Ok(Network {
            inj_pending: RingSlab::uniform(n, 16, fill_flit),
            flight: RingSlab::with_capacities(&flight_caps, fill_delivery),
            inj_active_vc: vec![None; n],
            inj_rr: (0..n).map(|_| RoundRobin::new(cfg.vcs)).collect(),
            cfg,
            now: 0,
            // Links start active so their bandwidth credit warms up
            // exactly as the full-scan engine did; they drop out of the
            // set once saturated.  Switches and injectors start empty.
            active_links: ActiveSet::full(links.len()),
            active_switches: ActiveSet::new(n),
            active_injectors: ActiveSet::new(n),
            links_mask,
            switch_mask: vec![0u64; words_for(n)],
            inj_mask: vec![0u64; words_for(n)],
            masked: switches.iter().all(Switch::supports_mask),
            scratch_order: Vec::with_capacity(n.max(links.len())),
            scratch_arrivals: Vec::new(),
            scratch_grants: Vec::new(),
            scratch_moves: Vec::new(),
            scratch_avail: Vec::with_capacity(max_ports),
            scratch_credits: Vec::new(),
            scratch_view: MediumView::default(),
            scratch_actions: MediumActions::new(),
            switches,
            lut: lut.into_boxed_slice(),
            links,
            link_dst,
            port_base,
            out_link,
            band_port,
            upstream,
            flit_charges,
            charge_span,
            charge_log: ChargeBatch::new(),
            radios,
            radio_of_switch,
            radio_by_node,
            media: Vec::new(),
            next_packet: 0,
            reassembler: Reassembler::new(),
            arrivals: Vec::new(),
            stats: NetworkStats::new(),
            meter: EnergyMeter::new(),
            switch_static,
            serial_static,
            wireless_idle_static,
            flits_in_network: 0,
            backlog_flits: 0,
            radio_backlog_flits: 0,
            ff_cycles: 0,
            last_progress: 0,
            telemetry: None,
        })
    }

    /// Attaches a shared medium (the wireless channel + MAC).
    pub fn attach_medium(&mut self, medium: Box<dyn SharedMedium>) {
        self.media.push(medium);
    }

    /// Attaches the observability sink: per-link/per-switch counters
    /// and a time series bucketed every `sample_interval` cycles;
    /// `trace` additionally records packet-hop waypoints and asks the
    /// attached media to record MAC turn intervals.  Counters are
    /// pre-sized here so the hooks never allocate.  Telemetry is
    /// observational only — it is excluded from [`Network::state`]
    /// snapshots and never influences a decision (see
    /// `docs/observability.md`).
    pub fn enable_telemetry(&mut self, sample_interval: u64, trace: bool) {
        self.telemetry = Some(Box::new(NetworkTelemetry::new(
            self.links.len(),
            self.switches.len(),
            sample_interval,
            trace,
        )));
        if trace {
            for m in &mut self.media {
                m.set_trace_enabled(true);
            }
        }
    }

    /// The live telemetry sink, when enabled.
    pub fn telemetry(&self) -> Option<&NetworkTelemetry> {
        self.telemetry.as_deref()
    }

    /// Flushes the open time-series bucket and drains MAC turn spans
    /// into the trace buffer, then hands out the sink for export.
    /// `None` when telemetry was never enabled.
    pub fn finish_telemetry(&mut self) -> Option<&NetworkTelemetry> {
        let t = self.telemetry.as_deref_mut()?;
        t.series.finish();
        if let Some(tb) = &mut t.trace {
            for m in &mut self.media {
                m.drain_turn_records(&mut tb.turns);
            }
        }
        Some(t)
    }

    /// Per-medium MAC counters (one entry per attached medium), from
    /// the statistics each MAC already keeps.
    pub fn medium_counters(&self) -> Vec<MacCounters> {
        self.media.iter().map(|m| m.mac_counters()).collect()
    }

    /// Kind names of all links, dense link order (report surface for
    /// the per-link telemetry tables).
    pub fn link_kinds(&self) -> Vec<&'static str> {
        self.links.iter().map(|l| l.kind_name()).collect()
    }

    /// The engine configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The current cycle (completed steps plus fast-forwarded cycles).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of radios.
    pub fn radio_count(&self) -> usize {
        self.radios.len()
    }

    /// Statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Charges energy from a component outside the engine (memory stack
    /// service, for example) so the meter stays the single total.
    pub fn charge(&mut self, category: EnergyCategory, energy: wimnet_energy::Energy) {
        self.meter.add(category, energy);
    }

    /// Charges `count` identical quanta in one exact multiply-add — the
    /// O(1) entry point external closed forms (memory background power,
    /// driver-side batches) use during fast-forwarded stretches.
    pub fn charge_repeated(
        &mut self,
        category: EnergyCategory,
        energy: wimnet_energy::Energy,
        count: u64,
    ) {
        self.meter.add_repeated(category, energy, count);
    }

    /// Drains an externally assembled [`ChargeBatch`] into the meter —
    /// one exact multiply-add per run (the memory controllers'
    /// fast-forward closed form lands its background energy here).
    pub fn apply_charges(&mut self, batch: &ChargeBatch) {
        self.meter.apply_batch(batch);
    }

    /// Opens the measurement window now: resets window statistics and the
    /// energy meter (warmup energy is discarded, as in the paper).
    pub fn begin_measurement(&mut self) {
        self.stats.begin_measurement(self.now);
        self.meter.clear();
    }

    /// Flits accepted into the network and not yet delivered (excludes
    /// source-queue backlog).
    pub fn flits_in_flight(&self) -> u64 {
        self.flits_in_network
    }

    /// Exhaustively checks every switch's slab bookkeeping invariants
    /// (see [`Switch::assert_invariants`]); test support, O(switches ×
    /// ports × vcs).
    ///
    /// # Panics
    ///
    /// Panics when any switch's `buffered` counter or busy set disagrees
    /// with its flit-slab occupancy.
    pub fn assert_switch_invariants(&self) {
        for sw in &self.switches {
            sw.assert_invariants();
        }
        // The fast-forward precondition counter must track the radio
        // FIFOs exactly: a drifted counter would either pin `is_idle`
        // false forever (silently killing fast-forward) or skip cycles
        // with flits still buffered.
        assert_eq!(
            self.radio_backlog_flits,
            self.radios.iter().map(RadioTx::backlog).sum::<u64>(),
            "radio backlog counter out of sync"
        );
    }

    /// Flits generated but still waiting in source queues (O(1): the
    /// count is maintained on inject and drain).
    pub fn source_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.backlog_flits,
            (0..self.inj_pending.lanes())
                .map(|ni| self.inj_pending.len(ni) as u64)
                .sum::<u64>(),
            "source backlog counter out of sync"
        );
        self.backlog_flits
    }

    /// Flits waiting in one endpoint's source queue.
    pub fn source_backlog_at(&self, node: wimnet_topology::NodeId) -> u64 {
        self.inj_pending.len(node.index()) as u64
    }

    /// `true` if flits are in flight but nothing has moved for
    /// `threshold` cycles — the deadlock watchdog.
    pub fn is_stalled(&self, threshold: u64) -> bool {
        self.flits_in_network > 0 && self.now.saturating_sub(self.last_progress) > threshold
    }

    /// Queues a packet for injection at its source.  Returns the packet
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination is out of range.
    pub fn inject(&mut self, desc: PacketDesc) -> PacketId {
        assert!(desc.src.index() < self.switches.len(), "bad source");
        assert!(desc.dest.index() < self.switches.len(), "bad destination");
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let src = desc.src.index();
        for flit in desc.flits_for(id) {
            self.inj_pending.push_back_growing(src, flit);
        }
        self.backlog_flits += u64::from(desc.flits);
        self.active_injectors.insert(src);
        set_bit(&mut self.inj_mask, src);
        self.stats.on_inject(desc.flits);
        id
    }

    /// Packets delivered since the last drain.
    pub fn drain_arrivals(&mut self) -> Vec<ArrivedPacket> {
        std::mem::take(&mut self.arrivals)
    }

    /// Advances the network by `cycles` clock cycles, fast-forwarding
    /// through provably idle stretches (see [`Network::fast_forward`]).
    pub fn run_for(&mut self, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            left -= self.fast_forward(left);
            if left == 0 {
                return;
            }
            self.step();
            left -= 1;
        }
    }

    /// Steps until every injected flit has been delivered (sources empty
    /// and nothing in flight) or `max_cycles` elapse.  Returns `true`
    /// when fully drained.  The completion check is O(1), so a drained
    /// network exits without spinning empty cycles.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.flits_in_network == 0 && self.backlog_flits == 0 {
                return true;
            }
            self.step();
        }
        self.flits_in_network == 0 && self.backlog_flits == 0
    }

    /// `true` when stepping the network can change nothing except the
    /// per-cycle leakage/bookkeeping: no flits in flight or queued
    /// (including the radio TX FIFOs — the [`SharedMedium`] quiescence
    /// precondition, tracked explicitly), all link bandwidth credits
    /// saturated, and every attached medium quiescent.  This is the
    /// idle fast-forward precondition; the full contract lives in
    /// `docs/fast_forward.md`.
    pub fn is_idle(&self) -> bool {
        debug_assert!(
            self.flits_in_network > 0 || self.radio_backlog_flits == 0,
            "radio FIFOs hold flits the in-flight counter lost"
        );
        self.flits_in_network == 0
            && self.backlog_flits == 0
            && self.radio_backlog_flits == 0
            && self.links_quiescent()
            && self.media.iter().all(|m| m.is_quiescent())
    }

    /// `true` when no link has flits on the wire or unsaturated credit.
    /// Scans the active-link representation the chosen pipeline prunes;
    /// the other one is only a superset.
    fn links_quiescent(&self) -> bool {
        let quiescent = |li: usize| self.links[li].is_quiescent(self.flight.is_empty(li));
        if self.masked {
            set_bits(&self.links_mask).all(quiescent)
        } else {
            self.active_links.members().iter().all(|&li| quiescent(li))
        }
    }

    /// Flits currently buffered in radio TX FIFOs (O(1): maintained on
    /// push and MAC transmit).  Always a subset of
    /// [`Network::flits_in_flight`]; zero is part of the medium
    /// quiescence precondition.
    pub fn radio_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.radio_backlog_flits,
            self.radios.iter().map(RadioTx::backlog).sum::<u64>(),
            "radio backlog counter out of sync"
        );
        self.radio_backlog_flits
    }

    /// Cycles skipped by [`Network::fast_forward`] since construction —
    /// the per-run fast-forward statistic reports and examples surface.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.ff_cycles
    }

    /// Fast-forwards up to `cycles` idle cycles, applying exactly the
    /// per-cycle bookkeeping a full [`Network::step`] would have: medium
    /// idle charges, leakage energy and window-cycle statistics.  The
    /// meter's exact accumulator makes per-category sums order- and
    /// batching-independent, so each medium collapses the span into O(1)
    /// repeated charges via [`SharedMedium::idle_advance`] and the
    /// leakage loop becomes one [`EnergyMeter::add_repeated`] per
    /// category — energy totals stay bit-identical to stepping while
    /// meter work stays O(1) in the skipped-cycle count.  Returns the
    /// number of cycles actually skipped — zero when the network is not
    /// [`Network::is_idle`].
    pub fn fast_forward(&mut self, cycles: u64) -> u64 {
        if cycles == 0 || !self.is_idle() {
            return 0;
        }
        let mut media = std::mem::take(&mut self.media);
        let mut actions = std::mem::take(&mut self.scratch_actions);
        // Phase 5 position: media idle accounting first…
        for medium in &mut media {
            actions.list.clear();
            medium.idle_advance(self.now, cycles, &mut actions);
            for action in actions.actions() {
                match *action {
                    MediumAction::Energy { category, energy } => {
                        self.meter.add(category, energy);
                    }
                    MediumAction::EnergyRepeated { category, energy, count } => {
                        self.meter.add_repeated(category, energy, count);
                    }
                    MediumAction::Transmit { .. } => {
                        unreachable!("quiescent medium must not transmit")
                    }
                }
            }
        }
        // …then the phase 7 leakage, one exact multiply-add per
        // category instead of `cycles` float adds.
        self.meter.add_repeated(
            EnergyCategory::SwitchStatic,
            self.switch_static.energy_over_cycles(1, self.cfg.energy.clock),
            cycles,
        );
        if self.serial_static > Power::ZERO {
            self.meter.add_repeated(
                EnergyCategory::SerialIoStatic,
                self.serial_static.energy_over_cycles(1, self.cfg.energy.clock),
                cycles,
            );
        }
        if self.wireless_idle_static > Power::ZERO {
            self.meter.add_repeated(
                EnergyCategory::WirelessIdle,
                self.wireless_idle_static
                    .energy_over_cycles(1, self.cfg.energy.clock),
                cycles,
            );
        }
        self.media = media;
        self.scratch_actions = actions;
        self.stats.on_cycles(cycles);
        // Telemetry's closed form for the jumped span: the quiescence
        // precondition above makes every per-cycle delta zero, so the
        // sampler fills the skipped buckets by cursor arithmetic —
        // sampling never forces full stepping.
        if let Some(t) = &mut self.telemetry {
            t.series.fast_forward(self.now, cycles);
        }
        self.now += cycles;
        self.ff_cycles += cycles;
        cycles
    }

    /// Advances the network by one clock cycle.
    ///
    /// The steady-state hot path is allocation-free and visits only
    /// *active* components: links carrying flits or unsaturated credit,
    /// switches with buffered flits, endpoints with source backlog.
    /// Quiescent components are skipped entirely — provably a no-op for
    /// each (see the `active` module and docs/engine.md).
    ///
    /// Runs the masked pipeline when every switch fits the 128-bit VC
    /// masks (all paper configurations), and
    /// [`Network::step_reference`] otherwise; the two are
    /// decision-identical, bit for bit.
    #[inline]
    pub fn step(&mut self) {
        if self.masked {
            self.step_masked();
        } else {
            self.step_reference();
        }
    }

    /// Advances the network by one clock cycle on the reference
    /// pipeline: the dense active lists are swept and sorted every
    /// cycle and the switches run their three-pass phases
    /// ([`Switch::alloc_phase`], [`Switch::st_phase`]).
    ///
    /// [`Network::step`] takes this path only for switches larger than
    /// the 128-bit VC masks; it stays public as the differential oracle
    /// of `tests/fast_step.rs`.  Both pipelines may be freely mixed on
    /// one network.
    pub fn step_reference(&mut self) {
        let now = self.now;
        let mut order = std::mem::take(&mut self.scratch_order);

        // Phase 0: active links accrue bandwidth and deliver due flits.
        // Sorted index order keeps the walk deterministic (per-link work
        // is independent, but determinism costs one small sort).
        {
            let links = &self.links;
            let flight = &self.flight;
            self.active_links
                .sweep(|li| !links[li].is_quiescent(flight.is_empty(li)));
        }
        order.clear();
        order.extend_from_slice(self.active_links.members());
        order.sort_unstable();
        let mut arrivals = std::mem::take(&mut self.scratch_arrivals);
        for &li in &order {
            self.links[li].begin_cycle();
            arrivals.clear();
            Link::take_arrivals_into(&mut self.flight, li, now, &mut arrivals);
            if !arrivals.is_empty() {
                let (sw, port) = self.link_dst[li];
                for d in &arrivals {
                    self.switches[sw].deliver(port, d.vc, d.flit);
                }
                self.active_switches.insert(sw);
                set_bit(&mut self.switch_mask, sw);
            }
            // Observability: the link was active this cycle; a busy
            // cycle that delivered nothing with the credit window
            // exhausted is downstream backpressure.  Reads already-
            // computed facts only (zero observer effect).
            if let Some(t) = &mut self.telemetry {
                let lc = &mut t.links[li];
                lc.busy_cycles += 1;
                if arrivals.is_empty() && self.links[li].available() == 0 {
                    lc.credit_stalls += 1;
                }
            }
        }
        self.scratch_arrivals = arrivals;

        // Phase 1: injection (one flit per endpoint per cycle).
        self.pump_injection(&mut order);

        // Phase 2/3: RC + VA on switches with buffered flits; resolve
        // radio targets.  Ascending order mirrors the former full scan.
        {
            let switches = &self.switches;
            self.active_switches.sweep(|si| !switches[si].is_quiescent());
        }
        order.clear();
        order.extend_from_slice(self.active_switches.members());
        order.sort_unstable();
        let n_switches = self.switches.len();
        let mut grants = std::mem::take(&mut self.scratch_grants);
        for &si in &order {
            let lut_row = &self.lut[si * n_switches..(si + 1) * n_switches];
            self.switches[si].alloc_phase(now, lut_row, &mut grants);
            self.resolve_radio_targets(si, &grants);
            if let Some(t) = &mut self.telemetry {
                let sc = &mut t.switches[si];
                sc.active_cycles += 1;
                sc.occupancy_integral += self.switches[si].buffered_flits() as u64;
            }
        }
        self.scratch_grants = grants;

        // Phase 4: SA/ST on active switches; route the winning flits.
        // The shared wireless band has a global per-cycle flit budget in
        // point-to-point mode; the rotated processing order keeps band
        // allocation fair, and the active set is iterated in exactly
        // that rotated order so band draws, meter adds and arrival
        // ordering match the full-scan engine bit for bit.
        let mut band_budget = match self.cfg.wireless_mode {
            WirelessMode::PointToPoint { max_concurrent, .. } => max_concurrent,
            WirelessMode::Medium => u32::MAX,
        };
        let offset = (now % n_switches as u64) as usize;
        order.clear();
        order.extend_from_slice(self.active_switches.members());
        order.sort_unstable_by_key(|&si| (si + n_switches - offset) % n_switches);
        let mut moves = std::mem::take(&mut self.scratch_moves);
        for &si in &order {
            let pb = self.port_base[si];
            let ports = self.port_base[si + 1] - pb;
            self.scratch_avail.clear();
            for gp in pb..pb + ports {
                let a = match self.out_link[gp] {
                    Some(li) => self.links[li].available(),
                    None => u32::MAX, // local sink / radio: credits gate
                };
                self.scratch_avail.push(a);
            }
            self.switches[si].st_phase(
                now,
                &self.scratch_avail,
                &self.band_port[pb..pb + ports],
                &mut band_budget,
                &mut moves,
            );
            for m in &moves {
                self.apply_move(si, pb, m, now);
            }
        }
        self.scratch_moves = moves;
        self.scratch_order = order;

        self.drain_charges();
        self.run_media_phase(now);
        self.land_credits();
        self.finish_cycle(now);
    }

    /// Routes one winning ST movement: meter charges, upstream credit,
    /// ejection/radio/link delivery.  Shared verbatim by both pipelines
    /// (`pb` = `port_base[si]`).
    fn apply_move(&mut self, si: usize, pb: usize, m: &StMove, now: u64) {
        self.last_progress = now;
        // Per-flit-hop energy: log the port's precomputed charge
        // sequence (traversal + link crossing); the batch drains
        // into the meter once per cycle, in this exact order.
        let (start, len) = self.charge_span[pb + m.out_port];
        for &(cat, energy) in &self.flit_charges[start as usize..(start + len) as usize] {
            self.charge_log.push(cat, energy);
        }
        // Credit back upstream for the freed input slot.
        if let Upstream::Wired { switch, port } = self.upstream[pb + m.in_port] {
            self.scratch_credits.push((switch, port, m.in_vc));
        }
        if m.out_port == 0 {
            // Ejection: the flit reaches the attached endpoint
            // after the one-cycle switch traversal.
            if let Some(p) = self.reassembler.push(m.flit, now + 1) {
                self.stats.on_deliver(&p);
                if let Some(t) = &mut self.telemetry {
                    t.series.on_deliver(now, p.flits);
                    t.record_packet(
                        p.id.0,
                        p.src.index() as u64,
                        p.dest.index() as u64,
                        p.created_at,
                        p.arrived_at,
                    );
                }
                self.arrivals.push(p);
            }
            self.flits_in_network -= 1;
        } else if Some(m.out_port) == self.radio_of_switch[si].map(|(_, port)| port) {
            let (rid, _) = self.radio_of_switch[si].expect("radio port");
            let radio = &mut self.radios[rid.index()];
            let target = radio.target_by_vc[m.out_vc].expect("VA set a target before ST");
            assert!(
                radio.free_space(m.out_vc) > 0,
                "radio TX overflow: credit protocol violated"
            );
            radio.fifo.push_back(m.out_vc, (m.flit, target));
            self.radio_backlog_flits += 1;
        } else {
            let li = self.out_link[pb + m.out_port].expect("wired port has a link");
            self.links[li].send(&mut self.flight, li, m.flit, m.out_vc, now);
            self.active_links.insert(li);
            set_bit(&mut self.links_mask, li);
            if let Some(t) = &mut self.telemetry {
                t.links[li].flits += 1;
            }
        }
        // Observability: one ST grant consumed; head flits leave a
        // per-hop waypoint for the Chrome-trace exporter.  Counter
        // writes only — the move above was already decided.
        if let Some(t) = &mut self.telemetry {
            t.switches[si].grants += 1;
            if m.flit.kind.is_head() {
                t.record_hop(m.flit.packet.0, si as u64, now);
            }
        }
    }

    /// Resolves radio targets for this cycle's VA grants on switch `si`'s
    /// radio port (the destination WI the next wireless hop reaches).
    /// Shared by both stepping paths.
    fn resolve_radio_targets(&mut self, si: usize, grants: &[VaGrant]) {
        let Some((rid, radio_port)) = self.radio_of_switch[si] else { return };
        let n = self.switches.len();
        for g in grants {
            if g.out_port == radio_port {
                let next = self.lut[si * n + g.dest.index()].next;
                let target = self.radio_by_node[next.index()]
                    .expect("wireless next hop hosts a radio");
                self.radios[rid.index()].target_by_vc[g.out_vc] = Some(target);
            }
        }
    }

    /// Drains the batched per-flit charges before phase 5 so the meter's
    /// accumulation order matches the former per-move adds exactly (media
    /// charges always followed phase 4's).
    fn drain_charges(&mut self) {
        if !self.charge_log.is_empty() {
            self.meter.apply_batch(&self.charge_log);
            self.charge_log.clear();
        }
    }

    /// Phase 5: shared media (wireless channel + MAC).  View and action
    /// list are per-run scratch, refreshed/cleared in place.
    fn run_media_phase(&mut self, now: u64) {
        if self.media.is_empty() {
            return;
        }
        let mut view = std::mem::take(&mut self.scratch_view);
        self.refresh_view(&mut view);
        let mut media = std::mem::take(&mut self.media);
        let mut actions = std::mem::take(&mut self.scratch_actions);
        for medium in &mut media {
            actions.list.clear();
            medium.step(now, &view, &mut actions);
            self.apply_medium_actions(&actions);
        }
        self.media = media;
        self.scratch_actions = actions;
        self.scratch_view = view;
    }

    /// Phase 6: credits land (one-cycle credit loop).
    fn land_credits(&mut self) {
        for i in 0..self.scratch_credits.len() {
            let (sw, port, vc) = self.scratch_credits[i];
            self.switches[sw].return_credit(port, vc);
        }
        self.scratch_credits.clear();
    }

    /// Phase 7: leakage + end-of-cycle bookkeeping.
    fn finish_cycle(&mut self, now: u64) {
        self.meter.add(
            EnergyCategory::SwitchStatic,
            self.switch_static.energy_over_cycles(1, self.cfg.energy.clock),
        );
        if self.serial_static > Power::ZERO {
            self.meter.add(
                EnergyCategory::SerialIoStatic,
                self.serial_static.energy_over_cycles(1, self.cfg.energy.clock),
            );
        }
        if self.wireless_idle_static > Power::ZERO {
            self.meter.add(
                EnergyCategory::WirelessIdle,
                self.wireless_idle_static
                    .energy_over_cycles(1, self.cfg.energy.clock),
            );
        }
        self.stats.on_cycle();
        if let Some(t) = &mut self.telemetry {
            t.series.on_cycle(now, self.flits_in_network);
        }
        self.now = now + 1;
    }

    /// `true` when every switch fits the 128-bit VC masks (ports × vcs
    /// ≤ 128), so [`Network::step`] runs the masked pipeline.  The paper
    /// configurations (8 VCs, ≤ 8 ports) all qualify; larger switches
    /// step through [`Network::step_reference`].
    pub fn steps_masked(&self) -> bool {
        self.masked
    }

    /// One cycle on the masked pipeline — [`Network::step`]'s path when
    /// [`Network::steps_masked`] holds.
    ///
    /// Decision-identical to [`Network::step_reference`] — same grants,
    /// moves, arrival order, statistics, and bit-identical energy — but
    /// driven by word bitsets instead of swept-and-sorted active lists,
    /// with the switches' fused mask phases
    /// ([`Switch::alloc_phase_fast`], [`Switch::st_phase_fast`]) and
    /// lazy link-bandwidth queries.  The differential suite in
    /// `tests/fast_step.rs` pins the equivalence cycle by cycle.  Shared
    /// insert sites maintain the bitsets as conservative supersets, and
    /// only this path clears them (exact sweep at visit time).
    fn step_masked(&mut self) {
        debug_assert!(self.masked);
        let now = self.now;

        // Phase 0: links, ascending bit order (= the reference sorted walk).
        // Quiescent links drop out of the bitset exactly where the reference
        // sweep removed them from the active set.
        let mut arrivals = std::mem::take(&mut self.scratch_arrivals);
        for w in 0..self.links_mask.len() {
            let mut bits = self.links_mask[w];
            while bits != 0 {
                let li = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.links[li].is_quiescent(self.flight.is_empty(li)) {
                    self.links_mask[w] &= !(1u64 << (li & 63));
                    continue;
                }
                self.links[li].begin_cycle();
                arrivals.clear();
                Link::take_arrivals_into(&mut self.flight, li, now, &mut arrivals);
                if !arrivals.is_empty() {
                    let (sw, port) = self.link_dst[li];
                    for d in &arrivals {
                        self.switches[sw].deliver(port, d.vc, d.flit);
                    }
                    self.active_switches.insert(sw);
                    set_bit(&mut self.switch_mask, sw);
                }
                // Observability hook, mirroring the reference phase 0.
                if let Some(t) = &mut self.telemetry {
                    let lc = &mut t.links[li];
                    lc.busy_cycles += 1;
                    if arrivals.is_empty() && self.links[li].available() == 0 {
                        lc.credit_stalls += 1;
                    }
                }
            }
        }
        self.scratch_arrivals = arrivals;

        // Phase 1: injection.
        self.pump_injection_fast();

        // Phase 2/3: RC + VA on switches with buffered flits, ascending
        // bit order; empty switches drop out (the reference sweep).
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        for w in 0..self.switch_mask.len() {
            let mut bits = self.switch_mask[w];
            while bits != 0 {
                let si = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                order.push(si);
            }
        }
        let n_switches = self.switches.len();
        let mut grants = std::mem::take(&mut self.scratch_grants);
        for slot in &mut order {
            let si = *slot;
            if self.switches[si].is_quiescent() {
                clear_bit(&mut self.switch_mask, si);
                // Mark for exclusion from the phase 4 walk below.
                *slot = usize::MAX;
                continue;
            }
            let lut_row = &self.lut[si * n_switches..(si + 1) * n_switches];
            self.switches[si].alloc_phase_fast(now, lut_row, &mut grants);
            self.resolve_radio_targets(si, &grants);
            if let Some(t) = &mut self.telemetry {
                let sc = &mut t.switches[si];
                sc.active_cycles += 1;
                sc.occupancy_integral += self.switches[si].buffered_flits() as u64;
            }
        }
        self.scratch_grants = grants;
        order.retain(|&si| si != usize::MAX);

        // Phase 4: SA/ST in the same rotated order as the reference sort —
        // the ascending survivor list rotated at the first index ≥
        // offset.  Link bandwidth is queried lazily inside the switch
        // phase, only for ports with an actual candidate.
        let mut band_budget = match self.cfg.wireless_mode {
            WirelessMode::PointToPoint { max_concurrent, .. } => max_concurrent,
            WirelessMode::Medium => u32::MAX,
        };
        let offset = (now % n_switches as u64) as usize;
        let split = order.partition_point(|&si| si < offset);
        order.rotate_left(split);
        let mut moves = std::mem::take(&mut self.scratch_moves);
        for &si in &order {
            let pb = self.port_base[si];
            let ports = self.port_base[si + 1] - pb;
            {
                let links = &self.links;
                let out_link = &self.out_link;
                self.switches[si].st_phase_fast(
                    now,
                    |p| match out_link[pb + p] {
                        Some(li) => links[li].available(),
                        None => u32::MAX, // local sink / radio: credits gate
                    },
                    &self.band_port[pb..pb + ports],
                    &mut band_budget,
                    &mut moves,
                );
            }
            for m in &moves {
                self.apply_move(si, pb, m, now);
            }
        }
        self.scratch_moves = moves;
        self.scratch_order = order;

        self.drain_charges();
        self.run_media_phase(now);
        self.land_credits();
        self.finish_cycle(now);
    }

    /// Phase 1 of the masked pipeline: injection over the endpoint
    /// bitset, ascending (= the reference sorted walk); drained sources
    /// drop out at visit time.
    fn pump_injection_fast(&mut self) {
        for w in 0..self.inj_mask.len() {
            let mut bits = self.inj_mask[w];
            while bits != 0 {
                let ni = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.inj_pending.is_empty(ni) {
                    self.inj_mask[w] &= !(1u64 << (ni & 63));
                    continue;
                }
                let front = self.inj_pending.front(ni).expect("checked non-empty");
                let is_head = front.kind.is_head();
                let vc = if is_head {
                    let sw = &self.switches[ni];
                    self.inj_rr[ni].grant(|v| {
                        sw.may_accept(0, v, front.packet, true) && sw.input_space(0, v) > 0
                    })
                } else {
                    let v = self.inj_active_vc[ni].expect("body flit has an active VC");
                    (self.switches[ni].input_space(0, v) > 0).then_some(v)
                };
                let Some(vc) = vc else { continue };
                let flit = self.inj_pending.pop_front(ni).expect("front exists");
                self.switches[ni].deliver(0, vc, flit);
                self.active_switches.insert(ni);
                set_bit(&mut self.switch_mask, ni);
                self.backlog_flits -= 1;
                self.flits_in_network += 1;
                self.last_progress = self.now;
                self.inj_active_vc[ni] = if flit.kind.is_tail() { None } else { Some(vc) };
            }
        }
    }

    fn pump_injection(&mut self, order: &mut Vec<usize>) {
        {
            let pending = &self.inj_pending;
            self.active_injectors.sweep(|ni| !pending.is_empty(ni));
        }
        order.clear();
        order.extend_from_slice(self.active_injectors.members());
        order.sort_unstable();
        for &ni in order.iter() {
            let front = self.inj_pending.front(ni).expect("swept non-empty");
            let is_head = front.kind.is_head();
            let vc = if is_head {
                let sw = &self.switches[ni];
                self.inj_rr[ni].grant(|v| {
                    sw.may_accept(0, v, front.packet, true) && sw.input_space(0, v) > 0
                })
            } else {
                let v = self.inj_active_vc[ni].expect("body flit has an active VC");
                (self.switches[ni].input_space(0, v) > 0).then_some(v)
            };
            let Some(vc) = vc else { continue };
            let flit = self.inj_pending.pop_front(ni).expect("front exists");
            self.switches[ni].deliver(0, vc, flit);
            self.active_switches.insert(ni);
            set_bit(&mut self.switch_mask, ni);
            self.backlog_flits -= 1;
            self.flits_in_network += 1;
            self.last_progress = self.now;
            self.inj_active_vc[ni] = if flit.kind.is_tail() { None } else { Some(vc) };
        }
    }

    /// Refreshes `view` in place to the current radio TX/RX state.  The
    /// per-radio snapshot vectors are cleared and refilled with `Copy`
    /// entries, so after the first cycle this allocates nothing.
    fn refresh_view(&self, view: &mut MediumView) {
        let radios_out = view.radios_mut();
        if radios_out.len() != self.radios.len() {
            radios_out.clear();
            radios_out.extend(self.radios.iter().enumerate().map(|(i, radio)| {
                RadioView {
                    id: RadioId(i),
                    node: radio.node,
                    tx: Vec::with_capacity(radio.fifo.lanes()),
                    rx: Vec::with_capacity(self.cfg.vcs),
                }
            }));
        }
        for (radio, out) in self.radios.iter().zip(radios_out.iter_mut()) {
            out.node = radio.node;
            out.tx.clear();
            for v in 0..radio.fifo.lanes() {
                let front = radio.fifo.front(v);
                let (run, has_tail) = match front {
                    Some((f, _)) => {
                        let mut run = 0usize;
                        let mut has_tail = false;
                        for (g, _) in radio.fifo.iter(v) {
                            if g.packet != f.packet {
                                break;
                            }
                            run += 1;
                            if g.kind.is_tail() {
                                has_tail = true;
                                break;
                            }
                        }
                        (run, has_tail)
                    }
                    None => (0, false),
                };
                out.tx.push(TxVcView {
                    front,
                    len: radio.fifo.len(v),
                    front_run_len: run,
                    front_run_has_tail: has_tail,
                });
            }
            let si = radio.node.index();
            let (_, radio_port) = self.radio_of_switch[si].expect("radio switch");
            let sw = &self.switches[si];
            out.rx.clear();
            for v in 0..self.cfg.vcs {
                out.rx.push(RxVcView {
                    owner: sw.vc_owner(radio_port, v),
                    len: sw.vc_len(radio_port, v),
                    capacity: sw.vc_capacity(),
                });
            }
        }
    }

    fn apply_medium_actions(&mut self, actions: &MediumActions) {
        for action in actions.actions() {
            match *action {
                MediumAction::Energy { category, energy } => {
                    self.meter.add(category, energy);
                }
                MediumAction::EnergyRepeated { category, energy, count } => {
                    self.meter.add_repeated(category, energy, count);
                }
                MediumAction::Transmit { from, tx_vc, rx_vc } => {
                    let radio = &mut self.radios[from.index()];
                    let (flit, target) = radio
                        .fifo
                        .pop_front(tx_vc)
                        .expect("MAC transmitted from an empty TX VC");
                    self.radio_backlog_flits -= 1;
                    // Free TX slot: credit back to the hosting switch's
                    // radio output port.
                    let host = radio.node.index();
                    let (_, host_port) = self.radio_of_switch[host].expect("host radio");
                    self.scratch_credits.push((host, host_port, tx_vc));
                    // Deliver into the receive VC the MAC reserved.
                    let ti = self.radios[target.index()].node.index();
                    let (_, t_port) = self.radio_of_switch[ti].expect("target radio");
                    {
                        let sw = &self.switches[ti];
                        assert!(
                            sw.may_accept(t_port, rx_vc, flit.packet, flit.kind.is_head())
                                && sw.input_space(t_port, rx_vc) > 0,
                            "MAC reservation violated at {target} vc {rx_vc} \
                             for {} ({:?})",
                            flit.packet,
                            flit.kind,
                        );
                    }
                    self.switches[ti].deliver(t_port, rx_vc, flit);
                    self.active_switches.insert(ti);
                    set_bit(&mut self.switch_mask, ti);
                    self.last_progress = self.now;
                }
            }
        }
    }

    /// Captures the network's complete dynamic state for checkpointing.
    ///
    /// Must be called between cycles (never from inside a step), where
    /// the per-cycle scratch buffers and the charge batch are empty —
    /// the snapshot deliberately omits them.
    ///
    /// # Panics
    ///
    /// Panics if the per-cycle charge batch is non-empty (a snapshot
    /// taken mid-step would silently drop pending meter charges).
    pub fn state(&self) -> NetworkState {
        assert!(
            self.charge_log.is_empty(),
            "network snapshot taken mid-cycle (pending meter charges)"
        );
        let (flight_lanes, flight_caps) = self.flight.state();
        let (inj_lanes, inj_caps) = self.inj_pending.state();
        NetworkState {
            now: self.now,
            switches: self.switches.iter().map(Switch::state).collect(),
            link_credits: self.links.iter().map(Link::credit).collect(),
            flight_lanes,
            flight_caps,
            radios: self
                .radios
                .iter()
                .map(|r| {
                    let (lanes, capacities) = r.fifo.state();
                    RadioTxState {
                        lanes,
                        capacities,
                        target_by_vc: r.target_by_vc.clone(),
                    }
                })
                .collect(),
            media: self.media.iter().map(|m| m.state_value()).collect(),
            inj_lanes,
            inj_caps,
            inj_active_vc: self.inj_active_vc.clone(),
            inj_cursors: self.inj_rr.iter().map(RoundRobin::cursor).collect(),
            next_packet: self.next_packet,
            reassembler: self.reassembler.clone(),
            arrivals: self.arrivals.clone(),
            stats: self.stats.clone(),
            meter: self.meter.clone(),
            flits_in_network: self.flits_in_network,
            backlog_flits: self.backlog_flits,
            radio_backlog_flits: self.radio_backlog_flits,
            ff_cycles: self.ff_cycles,
            last_progress: self.last_progress,
            active_links: self.active_links.members().to_vec(),
            active_switches: self.active_switches.members().to_vec(),
            active_injectors: self.active_injectors.members().to_vec(),
            links_mask: self.links_mask.clone(),
            switch_mask: self.switch_mask.clone(),
            inj_mask: self.inj_mask.clone(),
        }
    }

    /// Restores a [`NetworkState`] into this network.  The network must
    /// have been built for the same layout, routes and configuration the
    /// snapshot was taken from; the subsequent run is then bit-identical
    /// to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`serde::Error`] when the snapshot's shape disagrees with this
    /// network's topology (counts of switches, links, radios, media or
    /// endpoints — e.g. a snapshot from a different scale or wireless
    /// model), or when an attached medium rejects its state value (MAC
    /// model mismatch).  Shape rejection happens before any mutation,
    /// so a failed restore leaves the network untouched.
    pub fn restore_state(&mut self, s: &NetworkState) -> Result<(), serde::Error> {
        let shape = |ours: usize, theirs: usize, what: &str| {
            if ours == theirs {
                Ok(())
            } else {
                Err(serde::Error::msg(format!(
                    "snapshot shape mismatch: {what} ({theirs} in snapshot, {ours} here)"
                )))
            }
        };
        shape(self.switches.len(), s.switches.len(), "switch count")?;
        shape(self.links.len(), s.link_credits.len(), "link count")?;
        shape(self.radios.len(), s.radios.len(), "radio count")?;
        shape(self.media.len(), s.media.len(), "medium count")?;
        shape(self.inj_active_vc.len(), s.inj_active_vc.len(), "endpoint count")?;
        shape(self.inj_rr.len(), s.inj_cursors.len(), "endpoint cursor count")?;
        shape(self.links_mask.len(), s.links_mask.len(), "link bitset width")?;
        shape(self.switch_mask.len(), s.switch_mask.len(), "switch bitset width")?;
        shape(self.inj_mask.len(), s.inj_mask.len(), "injector bitset width")?;
        // Media first: a MAC-model mismatch must fail before any part of
        // the network is mutated, so a failed restore leaves the freshly
        // built network untouched.
        for (m, v) in self.media.iter_mut().zip(&s.media) {
            m.restore_state_value(v)?;
        }
        self.now = s.now;
        for (sw, st) in self.switches.iter_mut().zip(&s.switches) {
            sw.restore_state(st);
        }
        for (link, &c) in self.links.iter_mut().zip(&s.link_credits) {
            link.set_credit(c);
        }
        self.flight.restore(&s.flight_lanes, &s.flight_caps);
        for (r, rs) in self.radios.iter_mut().zip(&s.radios) {
            r.fifo.restore(&rs.lanes, &rs.capacities);
            r.target_by_vc.clone_from(&rs.target_by_vc);
        }
        self.inj_pending.restore(&s.inj_lanes, &s.inj_caps);
        self.inj_active_vc.clone_from(&s.inj_active_vc);
        for (rr, &c) in self.inj_rr.iter_mut().zip(&s.inj_cursors) {
            rr.set_cursor(c);
        }
        self.next_packet = s.next_packet;
        self.reassembler = s.reassembler.clone();
        self.arrivals = s.arrivals.clone();
        self.stats = s.stats.clone();
        self.meter = s.meter.clone();
        self.flits_in_network = s.flits_in_network;
        self.backlog_flits = s.backlog_flits;
        self.radio_backlog_flits = s.radio_backlog_flits;
        self.ff_cycles = s.ff_cycles;
        self.last_progress = s.last_progress;
        self.active_links = ActiveSet::restore(self.links.len(), &s.active_links);
        self.active_switches = ActiveSet::restore(self.switches.len(), &s.active_switches);
        self.active_injectors = ActiveSet::restore(self.inj_rr.len(), &s.active_injectors);
        self.links_mask.copy_from_slice(&s.links_mask);
        self.switch_mask.copy_from_slice(&s.switch_mask);
        self.inj_mask.copy_from_slice(&s.inj_mask);
        self.charge_log.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_routing::RoutingPolicy;
    use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};

    fn build(arch: Architecture) -> (MultichipLayout, Network) {
        build_with(arch, RoutingPolicy::default())
    }

    fn build_with(arch: Architecture, policy: RoutingPolicy) -> (MultichipLayout, Network) {
        let layout =
            MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
        let routes = Routes::build(layout.graph(), policy).unwrap();
        let net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
        (layout, net)
    }

    #[test]
    fn config_validation() {
        assert!(NocConfig::paper().validate().is_ok());
        let mut c = NocConfig::paper();
        c.vcs = 0;
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper();
        c.buf_depth = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn single_packet_crosses_one_chip() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Two cores on the same chip, a few mesh hops apart.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[15];
        net.inject(PacketDesc::new(src, dst, 64, 0));
        for _ in 0..1000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
        assert_eq!(net.stats().flits_delivered(), 64);
        assert_eq!(net.flits_in_flight(), 0);
        let arr = net.drain_arrivals();
        assert_eq!(arr.len(), 1);
        // 6 mesh hops for 64 flits: latency must exceed serialization.
        assert!(arr[0].latency() >= 64);
        assert!(arr[0].latency() < 200, "got {}", arr[0].latency());
    }

    #[test]
    fn zero_load_latency_matches_pipeline_model() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Single-flit packet, one mesh hop: RC+VA+SA (3 cycles) + link
        // (1) + ejection (1), plus one cycle of injection.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[1];
        net.inject(PacketDesc::new(src, dst, 1, 0));
        for _ in 0..50 {
            net.step();
        }
        let arr = net.drain_arrivals();
        assert_eq!(arr.len(), 1);
        assert!(
            (5..=8).contains(&arr[0].latency()),
            "one-hop single-flit latency {} outside pipeline model",
            arr[0].latency()
        );
    }

    #[test]
    fn serial_link_is_much_slower_than_mesh() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Core on chip 0 to the same mesh position on chip 1: crosses the
        // single 15 Gbps serial I/O.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[16];
        net.inject(PacketDesc::new(src, dst, 64, 0));
        for _ in 0..3000 {
            net.step();
        }
        let arr = net.drain_arrivals();
        assert_eq!(arr.len(), 1);
        // 64 flits at 0.1875 flits/cycle is ≥ 341 cycles of serialization.
        assert!(arr[0].latency() > 300, "got {}", arr[0].latency());
    }

    #[test]
    fn packets_are_delivered_across_memory_wide_io() {
        let (layout, mut net) = build(Architecture::Substrate);
        let src = layout.core_nodes()[0];
        let dst = layout.memory_nodes()[0];
        net.inject(PacketDesc::new(src, dst, 64, 0));
        for _ in 0..2000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
        // Wide I/O energy must have been charged.
        assert!(net.meter().category(EnergyCategory::WideIo).joules() > 0.0);
    }

    #[test]
    fn many_packets_all_arrive_interposer() {
        let (layout, mut net) = build(Architecture::Interposer);
        let cores = layout.core_nodes().to_vec();
        let mut expected = 0;
        for (i, &src) in cores.iter().enumerate() {
            let dst = cores[(i + 17) % cores.len()];
            net.inject(PacketDesc::new(src, dst, 16, 0));
            expected += 1;
        }
        for _ in 0..5000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), expected);
        assert_eq!(net.flits_in_flight(), 0);
        assert!(!net.is_stalled(1000));
    }

    #[test]
    fn energy_meter_conserves_and_separates_categories() {
        let (layout, mut net) = build(Architecture::Interposer);
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[63],
            64,
            0,
        ));
        for _ in 0..3000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
        let meter = net.meter();
        assert!(meter.verify_conservation(1e-9));
        assert!(meter.category(EnergyCategory::SwitchDynamic).joules() > 0.0);
        assert!(meter.category(EnergyCategory::SwitchStatic).joules() > 0.0);
        assert!(meter.category(EnergyCategory::InterposerWire).joules() > 0.0);
        // No serial I/O in the interposer architecture.
        assert_eq!(meter.category(EnergyCategory::SerialIo).joules(), 0.0);
    }

    #[test]
    fn begin_measurement_discards_warmup_energy_and_stats() {
        let (layout, mut net) = build(Architecture::Substrate);
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[5],
            8,
            0,
        ));
        for _ in 0..500 {
            net.step();
        }
        assert!(net.meter().total().joules() > 0.0);
        net.begin_measurement();
        assert_eq!(net.meter().total().joules(), 0.0);
        assert_eq!(net.stats().window_packets_delivered(), 0);
        assert_eq!(net.stats().packets_delivered(), 1, "lifetime stats survive");
    }

    #[test]
    fn deterministic_simulation() {
        let run = || {
            let (layout, mut net) = build(Architecture::Substrate);
            for i in 0..32usize {
                net.inject(PacketDesc::new(
                    layout.core_nodes()[i],
                    layout.core_nodes()[63 - i],
                    16,
                    0,
                ));
            }
            for _ in 0..4000 {
                net.step();
            }
            (
                net.stats().packets_delivered(),
                net.stats().flits_delivered(),
                net.meter().total().picojoules(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert!((a.2 - b.2).abs() < 1e-6);
    }

    #[test]
    fn run_for_and_drain_helpers() {
        let (layout, mut net) = build(Architecture::Substrate);
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[9],
            16,
            0,
        ));
        net.run_for(3);
        assert_eq!(net.now(), 3);
        assert!(net.drain(5_000), "short packet must drain");
        assert_eq!(net.stats().packets_delivered(), 1);
        assert_eq!(net.flits_in_flight(), 0);
        // Draining an empty network is a no-op that reports success.
        let before = net.now();
        assert!(net.drain(100));
        assert_eq!(net.now(), before);
    }

    #[test]
    fn injection_respects_endpoint_rate() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Queue several packets at one source; backlog drains one flit
        // per cycle at most.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[3];
        for _ in 0..4 {
            net.inject(PacketDesc::new(src, dst, 8, 0));
        }
        assert_eq!(net.source_backlog(), 32);
        net.step();
        assert_eq!(net.source_backlog(), 31);
        net.step();
        assert_eq!(net.source_backlog(), 30);
    }

    #[test]
    fn wireless_layout_without_medium_stalls_interchip_traffic() {
        // Without an attached medium, radio TX buffers fill and nothing
        // crosses chips: the watchdog must detect the stall.
        let (layout, mut net) =
            build_with(Architecture::Wireless, RoutingPolicy::shortest_path());
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[63],
            64,
            0,
        ));
        for _ in 0..3000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 0);
        assert!(net.is_stalled(1000));
    }

    #[test]
    fn wide_io_sustains_more_than_one_flit_per_cycle() {
        // The 128 Gbps wide I/O runs at 1.6 flits/cycle: keep a stack's
        // link saturated from nearby cores and check the delivered rate
        // exceeds what any 1.0-rate link could carry.
        let (layout, mut net) = build(Architecture::Substrate);
        let stack = layout.memory_nodes()[0];
        let chip = layout.adjacent_chip_of_stack(0).unwrap();
        // Several cores of the adjacent chip hammer the stack.
        let base = chip * 16;
        let mut offered = 0u64;
        for k in 0..40u64 {
            for c in 0..8usize {
                net.inject(PacketDesc::new(
                    layout.core_nodes()[base + c],
                    stack,
                    64,
                    k * 50,
                ));
                offered += 1;
            }
        }
        let warm = 200u64;
        for _ in 0..warm {
            net.step();
        }
        net.begin_measurement();
        let cycles = 2_000u64;
        for _ in 0..cycles {
            net.step();
        }
        let flits = net.stats().window_flits_delivered();
        let rate = flits as f64 / cycles as f64;
        assert!(
            rate > 1.05,
            "wide I/O should exceed one flit per cycle, got {rate} \
             ({offered} packets offered)"
        );
        assert!(rate <= 1.6 + 1e-9, "cannot beat the physical rate: {rate}");
    }

    #[test]
    fn intra_chip_traffic_flows_on_wireless_architecture_without_medium() {
        // Shortest-path routing keeps same-chip traffic on the mesh (a
        // radio detour is never shorter than the direct mesh path).
        let (layout, mut net) =
            build_with(Architecture::Wireless, RoutingPolicy::shortest_path());
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[5],
            16,
            0,
        ));
        for _ in 0..1000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
    }
}

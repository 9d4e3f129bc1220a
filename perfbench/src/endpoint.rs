//! `endpoint_monitor`: the benchmark is the controller of many sessions
//! on `EndpointReactor`s it drives directly through an in-memory
//! `NetStack`, so PFVM adjudication does most of the work.
//!
//! Each reactor hosts four sessions of distinct experiments whose
//! delegation chains carry different monitors: two of depth 1
//! (Figure-2), one of depth 2 (quota, Figure-2) and one of depth 4
//! (dst-allowlist, quota, ICMP-only, Figure-2). §3.3 gives an endpoint to
//! one experiment at a time, so the sessions take turns: a turn opens a
//! raw socket, installs a capture filter, sends a burst of probes, is fed
//! replies plus as many background packets, drains the captures and
//! yields. The next session's first command takes control.
//!
//! Every verdict is checked against a `MonitorSet::instantiate_sequential`
//! reference of the same chain fed the same ordered stream: each packet
//! that reaches the stack, and each captured packet, must be one the
//! reference allows.

use packetlab::cert::{CertPayload, Certificate, Restrictions};
use packetlab::controller::Credentials;
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::monitor::MonitorSet;
use packetlab::netstack::NetStack;
use packetlab::reactor::EndpointReactor;
use packetlab::wire::{Command, ErrCode, FrameDecoder, Message, Proto, Response};
use plab_crypto::{KeyHash, Keypair};
use plab_filter::{EntryPoint, Vm};
use plab_packet::builder;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::ledger::{Ledger, ObsSnapshot};
use crate::monitors;
use crate::probes::{self, Adjudication};
use crate::report::{
    fnv, lower_quartile, median, percentile_sorted, tail_percentile, upper_quartile, Metrics,
    FNV_BASIS,
};
use crate::sys::{self, Span};
use crate::{Args, Outcome};

/// Sessions per reactor and their chain depths: half depth 1, a quarter
/// depth 2, a quarter depth 4.
const DEPTHS: [usize; 4] = [1, 1, 2, 4];
/// Endpoint clock advance per turn: one quota window (2^30 ns), so each
/// turn starts with a fresh quota.
const TURN_NS: u64 = 1 << 30;
/// The endpoint's address.
const ENDPOINT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Endpoint clock at set-up, ns.
const START_CLOCK: u64 = 1_000;
/// Raw socket id every turn uses.
const SKT: u32 = 1;
/// Adjudications recorded per chain depth for the PFVM probe.
const PROBE_STREAM: usize = 256;

/// Workload size.
struct Size {
    reactors: usize,
    /// Rounds per pass; in a round every session takes one turn.
    rounds: usize,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            reactors: 2,
            rounds: 2,
        }
    } else {
        Size {
            reactors: 16,
            rounds: 40,
        }
    }
}

/// In-memory [`NetStack`] of one endpoint host: a virtual clock, control
/// connection inboxes the benchmark feeds, outboxes the reactor flushes
/// into, and a log of every raw packet the endpoint transmitted.
struct Stack {
    clock: u64,
    inbox: HashMap<u64, Vec<u8>>,
    outbox: BTreeMap<u64, Vec<u8>>,
    sent: Vec<Vec<u8>>,
}

impl NetStack for Stack {
    fn clock(&self) -> u64 {
        self.clock
    }
    fn local_addr(&self) -> Ipv4Addr {
        ENDPOINT
    }
    fn external_addr(&self) -> Ipv4Addr {
        ENDPOINT
    }
    fn mtu(&self) -> u32 {
        1500
    }
    fn raw_supported(&self) -> bool {
        true
    }
    fn raw_send_at(&mut self, _time: u64, packet: Vec<u8>, _tag: u64) {
        self.sent.push(packet);
    }
    fn udp_bind(&mut self, _port: u16) -> bool {
        true
    }
    fn udp_unbind(&mut self, _port: u16) {}
    fn udp_send_at(&mut self, _: u64, _: u16, _: Ipv4Addr, _: u16, _: &[u8], _: u64) {}
    fn take_udp(&mut self, _port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        Vec::new()
    }
    fn tcp_connect(&mut self, _dst: Ipv4Addr, _dst_port: u16) -> u64 {
        0
    }
    fn tcp_send(&mut self, conn: u64, data: &[u8]) {
        self.outbox.entry(conn).or_default().extend_from_slice(data);
    }
    fn tcp_recv(&mut self, conn: u64, max: usize) -> Vec<u8> {
        let Some(buf) = self.inbox.get_mut(&conn) else {
            return Vec::new();
        };
        let n = buf.len().min(max);
        buf.drain(..n).collect()
    }
    fn tcp_readable(&self, conn: u64) -> usize {
        self.inbox.get(&conn).map_or(0, Vec::len)
    }
    fn tcp_close(&mut self, _conn: u64) {}
    fn tcp_alive(&self, _conn: u64) -> bool {
        true
    }
    fn schedule_wakeup(&mut self, _key: u64, _time: u64) {}
    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        Vec::new()
    }
}

struct Session {
    conn: u64,
    decoder: FrameDecoder,
}

struct Endpoint {
    reactor: EndpointReactor,
    stack: Stack,
    sessions: Vec<Session>,
}

/// Counts and samples the traced pass collects.
#[derive(Default)]
struct Trace {
    /// Wall ns inside `pump`/`dispatch`/`flush`/`on_packet`.
    reactor_ns: u64,
    /// Per-command ns from feeding the frame until its reply is flushed.
    cmd_ns: Vec<u64>,
    /// Sample of the messages exchanged, for the wire probe.
    messages: Vec<Message>,
    /// Sample of adjudication streams by depth, for the PFVM probe.
    streams: BTreeMap<usize, Vec<Adjudication>>,
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    digest: u64,
    commands: u64,
    /// Commands whose reply was not the expected one.
    failed: u64,
    turns: u64,
    /// Packets through the send and recv monitor path.
    adjudicated: u64,
    adjudicated_by_depth: BTreeMap<usize, u64>,
    /// Frames exchanged on the control connections.
    frames: u64,
    /// Wall ns of every turn's calls into the reactor.
    turn_ns: Vec<u64>,
    notes: Vec<String>,
    trace: Option<Trace>,
}

impl Pass {
    fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }
}

/// Everything set-up builds: reactors with authenticated sessions and
/// the capture filter.
struct World {
    endpoints: Vec<Endpoint>,
    capture: Vec<u8>,
    /// Credentials of the first session of each depth (crypto probe).
    sample_creds: BTreeMap<usize, Credentials>,
    /// Chains of each depth, encoded (PFVM probe).
    chains: BTreeMap<usize, Vec<Vec<u8>>>,
    operator: Keypair,
    /// Signatures made during set-up.
    signs: u64,
    /// Signature verifications the endpoints made during set-up.
    verifies: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn info_block(clock: u64) -> Vec<u8> {
    let mut info = vec![0u8; plab_packet::layout::INFO_SIZE];
    let field = |name| plab_packet::layout::resolve_info(name).expect("info field exists");
    field("clock").write_le(&mut info, clock);
    field("addr.ip").write_le(&mut info, u64::from(u32::from(ENDPOINT)));
    info
}

/// Run `f` with `plab-obs` recording off on this thread, so the
/// benchmark's own PFVM runs and decoding stay out of the counters.
fn unrecorded<T>(f: impl FnOnce() -> T) -> T {
    let recording = plab_obs::enabled();
    plab_obs::disable();
    let out = f();
    if recording {
        plab_obs::enable();
    }
    out
}

/// Feed `frame` on `conn` and run the reactor until the reply is
/// flushed; returns the flushed bytes.
fn exchange(ep: &mut Endpoint, conn: u64, frame: &[u8], trace: Option<&mut Trace>) -> Vec<u8> {
    let start = trace.is_some().then(Instant::now);
    ep.stack
        .inbox
        .entry(conn)
        .or_default()
        .extend_from_slice(frame);
    ep.reactor.pump(&mut ep.stack);
    ep.reactor.dispatch(&mut ep.stack);
    ep.reactor.flush(&mut ep.stack);
    if let (Some(t), Some(start)) = (trace, start) {
        let ns = start.elapsed().as_nanos() as u64;
        t.reactor_ns += ns;
        t.cmd_ns.push(ns);
    }
    ep.stack.outbox.remove(&conn).unwrap_or_default()
}

/// A deterministic key pair named by `tag`.
fn key(tag: [u8; 4]) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..4].copy_from_slice(&tag);
    Keypair::from_seed(&seed)
}

/// A delegation chain of `monitors` (root first) from `operator` to
/// `experimenter`, ending in the experiment certificate.
fn issue_chain(
    operator: &Keypair,
    experimenter: &Keypair,
    monitors: &[Vec<u8>],
    descriptor: ExperimentDescriptor,
    key_seed: [u8; 2],
) -> Credentials {
    let n = monitors.len();
    // Intermediate keys between the operator and the experimenter.
    let mids: Vec<Keypair> = (1..n)
        .map(|k| key([key_seed[0], key_seed[1], k as u8, 0x33]))
        .collect();
    let signers: Vec<&Keypair> = std::iter::once(operator).chain(mids.iter()).collect();
    let mut chain = Vec::with_capacity(n + 1);
    for (i, monitor) in monitors.iter().enumerate() {
        let next = if i + 1 < n {
            &mids[i].public
        } else {
            &experimenter.public
        };
        chain.push(Certificate::sign(
            signers[i],
            CertPayload::Delegation(KeyHash::of(next)),
            Restrictions {
                monitor: Some(monitor.clone()),
                ..Restrictions::none()
            },
        ));
    }
    chain.push(Certificate::sign(
        experimenter,
        CertPayload::Experiment(descriptor.hash()),
        Restrictions::none(),
    ));
    let mut keys: Vec<_> = signers.iter().map(|k| k.public).collect();
    keys.push(experimenter.public);
    Credentials {
        descriptor,
        chain,
        keys,
        signing_key: experimenter.clone(),
        priority: 10,
    }
}

impl World {
    fn build(reactors: usize) -> World {
        let fig2 = monitors::compile("figure2", monitors::FIGURE2);
        let quota = monitors::compile("quota", monitors::QUOTA);
        let icmp = monitors::compile("icmp_only", monitors::ICMP_ONLY);
        let allow = monitors::compile("dst_allowlist", monitors::DST_ALLOWLIST);
        let capture = monitors::compile("capture", monitors::CAPTURE_FILTER);
        let chains: BTreeMap<usize, Vec<Vec<u8>>> = [
            (1, vec![fig2.clone()]),
            (2, vec![quota.clone(), fig2.clone()]),
            (4, vec![allow, quota, icmp, fig2]),
        ]
        .into_iter()
        .collect();
        let operator = Keypair::from_seed(&[1; 32]);
        let config = EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        };
        let hello = Message::Hello {
            version: packetlab::PROTOCOL_VERSION,
        }
        .to_frame();
        let mut sample_creds = BTreeMap::new();
        let (mut signs, mut verifies) = (0u64, 0u64);
        let mut endpoints = Vec::with_capacity(reactors);
        for r in 0..reactors {
            let mut ep = Endpoint {
                reactor: EndpointReactor::new(config.clone()),
                stack: Stack {
                    clock: START_CLOCK,
                    inbox: HashMap::new(),
                    outbox: BTreeMap::new(),
                    sent: Vec::new(),
                },
                sessions: Vec::new(),
            };
            for (s, &depth) in DEPTHS.iter().enumerate() {
                let conn = s as u64 + 1;
                let experimenter = key([r as u8, (r >> 8) as u8, s as u8, 0x77]);
                let descriptor = ExperimentDescriptor {
                    name: format!("endpoint-monitor-r{r}-s{s}"),
                    controller_addr: "10.9.0.1:7000".into(),
                    info_url: String::new(),
                    experimenter: KeyHash::of(&experimenter.public),
                };
                let creds = issue_chain(
                    &operator,
                    &experimenter,
                    &chains[&depth],
                    descriptor,
                    [r as u8, s as u8],
                );
                signs += creds.chain.len() as u64 + 1;
                verifies += creds.chain.len() as u64 + 1;
                ep.reactor.accept(conn);
                let mut decoder = FrameDecoder::new();
                decoder.extend(&exchange(&mut ep, conn, &hello, None));
                let mut nonce = None;
                while let Some(m) = decoder.next_message().expect("handshake decodes") {
                    if let Message::HelloAck { nonce: n, .. } = m {
                        nonce = Some(n);
                    }
                }
                let nonce = nonce.expect("endpoint answers Hello");
                let auth = creds.auth_message(&nonce).to_frame();
                decoder.extend(&exchange(&mut ep, conn, &auth, None));
                let mut ok = false;
                while let Some(m) = decoder.next_message().expect("auth decodes") {
                    ok |= matches!(m, Message::AuthOk);
                }
                assert!(ok, "session r{r} s{s} not authenticated");
                sample_creds.entry(depth).or_insert(creds);
                ep.sessions.push(Session { conn, decoder });
            }
            // Drain the Resumed/Interrupted chatter of the handshakes.
            ep.stack.outbox.clear();
            endpoints.push(ep);
        }
        World {
            endpoints,
            capture,
            sample_creds,
            chains,
            operator,
            signs,
            verifies,
        }
    }
}

/// The destinations the probes of one turn target.
fn pick_dst(rng: &mut u64) -> Ipv4Addr {
    let [a, b, c, d] = monitors::ALLOWED_DSTS[(splitmix64(rng) % 4) as usize];
    Ipv4Addr::new(a, b, c, d)
}

/// One probe of a burst: mostly ICMP echo requests to the turn's
/// destination with 8 B or 1000 B payloads; about 10% violate every
/// chain (UDP, or a spoofed source) and about 5% target a host outside
/// the allowlist, which only the depth-4 chain denies.
fn probe(rng: &mut u64, dst: Ipv4Addr, i: u16) -> Vec<u8> {
    let roll = splitmix64(rng) % 100;
    let payload = if splitmix64(rng).is_multiple_of(2) {
        vec![0x5a; 8]
    } else {
        vec![0x5a; 1000]
    };
    match roll {
        0..=4 => builder::udp_datagram(ENDPOINT, dst, 33_000, 53, &payload),
        5..=9 => {
            builder::icmp_echo_request(Ipv4Addr::new(10, 0, 0, 66), dst, 64, 0x504c, i, &payload)
        }
        10..=14 => builder::icmp_echo_request(
            ENDPOINT,
            Ipv4Addr::new(10, 0, 99, 9),
            64,
            0x504c,
            i,
            &payload,
        ),
        _ => builder::icmp_echo_request(ENDPOINT, dst, 64, 0x504c, i, &payload),
    }
}

/// A background packet: traffic the capture filter skips (UDP), or that
/// it captures and the Figure-2 recv entry refuses (an unsolicited echo
/// reply or request), or a time-exceeded error quoting one of our probes.
fn background(rng: &mut u64, last_probe: Option<&[u8]>) -> Vec<u8> {
    let peer = Ipv4Addr::new(10, 0, 99, 77);
    match splitmix64(rng) % 4 {
        0 => builder::udp_datagram(peer, ENDPOINT, 53, 33_000, &[0u8; 64]),
        1 => builder::icmp_echo_reply(peer, ENDPOINT, 0x1234, 7, &[0u8; 32]),
        2 => builder::icmp_echo_request(peer, ENDPOINT, 64, 0x1234, 7, &[0u8; 32]),
        _ => match last_probe {
            Some(p) => builder::icmp_time_exceeded(Ipv4Addr::new(10, 0, 0, 254), ENDPOINT, p),
            None => builder::udp_datagram(peer, ENDPOINT, 53, 33_000, &[0u8; 64]),
        },
    }
}

/// The echo reply a probe would draw, if it is an echo request.
fn reply_to(probe: &[u8]) -> Option<Vec<u8>> {
    if probe.len() < 28 || probe[9] != 1 || probe[20] != 8 {
        return None;
    }
    let src = Ipv4Addr::new(probe[12], probe[13], probe[14], probe[15]);
    let dst = Ipv4Addr::new(probe[16], probe[17], probe[18], probe[19]);
    let ident = u16::from_be_bytes([probe[24], probe[25]]);
    let seq = u16::from_be_bytes([probe[26], probe[27]]);
    Some(builder::icmp_echo_reply(dst, src, ident, seq, &probe[28..]))
}

/// One turn of session `s` on endpoint `e`, built before the timed pass
/// from the seed alone: the frames and packets to feed, and what the
/// sequential reference says must come back.
struct Script {
    e: usize,
    s: usize,
    clock: u64,
    /// Sequence number of the first command.
    seq: u64,
    /// Frames fed before the packets: `NOpen`, `NCap`, one `NSend` per
    /// probe.
    before: Vec<Vec<u8>>,
    /// Packets fed through `on_packet`: each reply, then a background
    /// packet.
    inbound: Vec<Vec<u8>>,
    /// Frames fed after the packets: `NPoll`, `NClose`, `Yield`.
    after: Vec<Vec<u8>>,
    /// The reference's send verdict on each probe.
    verdicts: Vec<bool>,
    /// The probes the reference allows, in order: what must reach the
    /// stack.
    allowed: Vec<Vec<u8>>,
    /// Packets the capture filter takes and the reference's recv entry
    /// allows, in order: what `NPoll` must return.
    expected: Vec<Vec<u8>>,
    /// Packets through the send and recv monitor path.
    adjudicated: u64,
}

/// What the endpoint gave back for one [`Script`].
struct Replies {
    /// Flushed bytes per command, in command order.
    bytes: Vec<Vec<u8>>,
    /// Raw packets that reached the stack during the burst.
    sent: Vec<Vec<u8>>,
}

/// Builds the turns of a pass in order. Holds each session's
/// sequential reference monitor, next sequence number and endpoint
/// clock, so the references see the same ordered stream the endpoint
/// will.
struct Scripter {
    rng: u64,
    capture: Vec<u8>,
    capture_vm: Vm,
    /// Per endpoint, per session.
    references: Vec<Vec<MonitorSet>>,
    seqs: Vec<Vec<u64>>,
    clocks: Vec<u64>,
    /// The first adjudications of each depth, for the PFVM probe.
    streams: BTreeMap<usize, Vec<Adjudication>>,
}

fn cmd_frame(seq: &mut u64, cmd: Command) -> Vec<u8> {
    let frame = Message::CmdSeq { seq: *seq, cmd }.to_frame();
    *seq += 1;
    frame
}

impl Scripter {
    fn new(world: &World, seed: u64) -> Scripter {
        let info = info_block(START_CLOCK);
        let references = world
            .endpoints
            .iter()
            .map(|_| {
                DEPTHS
                    .iter()
                    .map(|d| {
                        MonitorSet::instantiate_sequential(&world.chains[d], &info)
                            .expect("reference chain instantiates")
                    })
                    .collect()
            })
            .collect();
        Scripter {
            rng: seed ^ 0x5eed_0e4d_b0a7,
            capture: world.capture.clone(),
            capture_vm: Vm::new(
                plab_filter::Program::decode(&world.capture).expect("filter decodes"),
            )
            .expect("filter validates"),
            references,
            seqs: vec![vec![1; DEPTHS.len()]; world.endpoints.len()],
            clocks: vec![START_CLOCK; world.endpoints.len()],
            streams: BTreeMap::new(),
        }
    }

    fn record(&mut self, depth: usize, send: bool, packet: &[u8]) {
        let stream = self.streams.entry(depth).or_default();
        if stream.len() < PROBE_STREAM {
            stream.push(Adjudication {
                send,
                packet: packet.to_vec(),
            });
        }
    }

    /// Every session's next turn, in play order.
    fn round(&mut self) -> Vec<Script> {
        let mut out = Vec::with_capacity(self.clocks.len() * DEPTHS.len());
        for e in 0..self.clocks.len() {
            for s in 0..DEPTHS.len() {
                out.push(self.turn(e, s));
            }
        }
        out
    }

    fn turn(&mut self, e: usize, s: usize) -> Script {
        let depth = DEPTHS[s];
        self.clocks[e] += TURN_NS;
        let clock = self.clocks[e];
        let info = info_block(clock);

        // 16 to 24 probes: the quota binds on the longer bursts.
        let dst = pick_dst(&mut self.rng);
        let burst =
            (monitors::QUOTA_PER_WINDOW - 4) as u16 + (splitmix64(&mut self.rng) % 9) as u16;
        let mut probes = Vec::with_capacity(usize::from(burst));
        let mut verdicts = Vec::with_capacity(usize::from(burst));
        let mut allowed = Vec::new();
        for i in 0..burst {
            let p = probe(&mut self.rng, dst, i);
            let verdict = self.references[e][s].allow_send(&p, &info);
            self.record(depth, true, &p);
            if verdict {
                allowed.push(p.clone());
            }
            verdicts.push(verdict);
            probes.push(p);
        }

        // Replies and as many background packets, interleaved.
        let mut adjudicated = u64::from(burst);
        let mut inbound = Vec::new();
        let mut expected = Vec::new();
        let replies: Vec<Vec<u8>> = allowed.iter().filter_map(|p| reply_to(p)).collect();
        for reply in replies {
            let noise = background(&mut self.rng, allowed.last().map(Vec::as_slice));
            for pkt in [reply, noise] {
                if self
                    .capture_vm
                    .run_entry(EntryPoint::Recv, &pkt, &info)
                    .unwrap_or(0)
                    != 0
                {
                    adjudicated += 1;
                    self.record(depth, false, &pkt);
                    if self.references[e][s].allow_recv(&pkt, &info) {
                        expected.push(pkt.clone());
                    }
                }
                inbound.push(pkt);
            }
        }

        let first = self.seqs[e][s];
        let mut seq = first;
        let mut before = vec![
            cmd_frame(
                &mut seq,
                Command::NOpen {
                    sktid: SKT,
                    proto: Proto::Raw,
                    locport: 0,
                    remaddr: 0,
                    remport: 0,
                },
            ),
            cmd_frame(
                &mut seq,
                Command::NCap {
                    sktid: SKT,
                    time: clock + TURN_NS / 2,
                    filt: self.capture.clone(),
                },
            ),
        ];
        for data in probes {
            before.push(cmd_frame(
                &mut seq,
                Command::NSend {
                    sktid: SKT,
                    time: 0,
                    data,
                },
            ));
        }
        let after = [
            Command::NPoll { time: 0 },
            Command::NClose { sktid: SKT },
            Command::Yield,
        ]
        .into_iter()
        .map(|cmd| cmd_frame(&mut seq, cmd))
        .collect();
        self.seqs[e][s] = seq;
        Script {
            e,
            s,
            clock,
            seq: first,
            before,
            inbound,
            after,
            verdicts,
            allowed,
            expected,
            adjudicated,
        }
    }
}

/// Feed one turn to its endpoint and keep what comes back. This is all
/// the timed pass does: no checking, hashing or packet building.
fn play(ep: &mut Endpoint, sc: &Script, trace: &mut Option<Trace>) -> Replies {
    let conn = ep.sessions[sc.s].conn;
    ep.stack.clock = sc.clock;
    let mut bytes = Vec::with_capacity(sc.before.len() + sc.after.len());
    for frame in &sc.before {
        bytes.push(exchange(ep, conn, frame, trace.as_mut()));
    }
    let sent = std::mem::take(&mut ep.stack.sent);
    for pkt in &sc.inbound {
        let start = trace.is_some().then(Instant::now);
        ep.reactor.on_packet(sc.clock, pkt, &mut ep.stack);
        if let (Some(t), Some(start)) = (trace.as_mut(), start) {
            t.reactor_ns += start.elapsed().as_nanos() as u64;
        }
    }
    for frame in &sc.after {
        bytes.push(exchange(ep, conn, frame, trace.as_mut()));
    }
    Replies { bytes, sent }
}

/// The message a command frame carries.
fn frame_message(frame: &[u8]) -> Message {
    let mut dec = FrameDecoder::new();
    dec.extend(frame);
    dec.next_message()
        .expect("own frame decodes")
        .expect("own frame is whole")
}

/// A reply, short enough for one line: `NPoll` replies by count.
fn brief(resp: &Option<Response>) -> String {
    match resp {
        Some(Response::Poll {
            packets,
            dropped_packets,
            ..
        }) => format!(
            "Poll of {} packets ({dropped_packets} dropped)",
            packets.len()
        ),
        other => format!("{other:?}"),
    }
}

/// Check one played turn against its script, after the timed pass:
/// every reply must be the expected one, exactly the allowed probes must
/// have reached the stack, and `NPoll` must return exactly the expected
/// captures.
fn check(world: &mut World, sc: &Script, got: &Replies, pass: &mut Pass) {
    let depth = DEPTHS[sc.s];
    let sends = sc.verdicts.len();
    let sess = &mut world.endpoints[sc.e].sessions[sc.s];
    let frames = sc.before.iter().chain(&sc.after);
    for (k, (bytes, sent_frame)) in got.bytes.iter().zip(frames).enumerate() {
        let seq = sc.seq + k as u64;
        pass.commands += 1;
        pass.frames += 1;
        pass.digest = fnv(fnv(pass.digest, &sess.conn.to_le_bytes()), bytes);
        sess.decoder.extend(bytes);
        let mut resp = None;
        while let Some(frame) = sess.decoder.next_frame().expect("reply frames decode") {
            pass.frames += 1;
            let m = Message::decode(&frame).expect("reply messages decode");
            if let Some(t) = pass.trace.as_mut() {
                if t.messages.len() < 512 {
                    t.messages.push(frame_message(sent_frame));
                    t.messages.push(m.clone());
                }
            }
            match m {
                Message::RespSeq { seq: got, resp: r } if got == seq => resp = Some(r),
                // Control changing hands between turns.
                Message::Notify(_) => {}
                other => pass.wrong(|| format!("seq {seq}: unexpected message {other:?}")),
            }
        }
        let poll = 2 + sends;
        let ok = if (2..poll).contains(&k) {
            matches!(
                (sc.verdicts[k - 2], &resp),
                (true, Some(Response::SendQueued { .. }))
                    | (
                        false,
                        Some(Response::Err {
                            code: ErrCode::Denied,
                            ..
                        })
                    )
            )
        } else if k == poll {
            matches!(&resp, Some(Response::Poll { packets, dropped_packets: 0, .. })
                if packets.iter().all(|(skt, _, _)| *skt == SKT)
                    && packets.iter().map(|(_, _, p)| p).eq(sc.expected.iter()))
        } else {
            matches!(resp, Some(Response::Ok))
        };
        if !ok {
            pass.wrong(|| {
                let what = if (2..poll).contains(&k) {
                    format!("probe {}: reference allows={}", k - 2, sc.verdicts[k - 2])
                } else if k == poll {
                    format!("NPoll: reference allows {} captures", sc.expected.len())
                } else {
                    format!("{:?}", frame_message(sent_frame))
                };
                format!(
                    "depth {depth} seq {seq}: {what}, endpoint replied {}",
                    brief(&resp)
                )
            });
        }
    }
    if got.sent != sc.allowed {
        pass.wrong(|| {
            format!(
                "depth {depth}: {} packets reached the stack, {} allowed",
                got.sent.len(),
                sc.allowed.len()
            )
        });
    }
    pass.turns += 1;
    pass.adjudicated += sc.adjudicated;
    *pass.adjudicated_by_depth.entry(depth).or_default() += sc.adjudicated;
}

/// Run `rounds` rounds over every endpoint. Each round's turns are
/// scripted before, and checked after, the round's timed span; the
/// returned span sums the timed spans alone.
fn run_pass(world: &mut World, seed: u64, rounds: usize, traced: bool) -> (Pass, Span) {
    let mut pass = Pass {
        digest: FNV_BASIS,
        trace: traced.then(Trace::default),
        turn_ns: Vec::with_capacity(rounds * world.endpoints.len() * DEPTHS.len()),
        ..Default::default()
    };
    let mut scripter = unrecorded(|| Scripter::new(world, seed));
    let mut timed = Span::default();
    for _ in 0..rounds {
        let scripts = unrecorded(|| scripter.round());
        let (replies, span) = sys::span(|| {
            scripts
                .iter()
                .map(|sc| {
                    let start = Instant::now();
                    let r = play(&mut world.endpoints[sc.e], sc, &mut pass.trace);
                    pass.turn_ns.push(start.elapsed().as_nanos() as u64);
                    r
                })
                .collect::<Vec<_>>()
        });
        timed.add(&span);
        unrecorded(|| {
            for (sc, r) in scripts.iter().zip(&replies) {
                check(world, sc, r, &mut pass);
            }
        });
    }
    if let Some(t) = pass.trace.as_mut() {
        t.streams = std::mem::take(&mut scripter.streams);
    }
    (pass, timed)
}

struct Rep {
    setup_s: f64,
    span: Span,
    pass: Pass,
}

fn one_rep(size: &Size, seed: u64, traced: bool) -> (Rep, World, Option<ObsSnapshot>) {
    // Monitor sets snapshot the obs flag when sessions authenticate,
    // during set-up: a traced run enables recording before it and
    // zeroes the counters after, so they cover the pass alone.
    if traced {
        plab_obs::enable();
    }
    let setup = Instant::now();
    let mut world = World::build(size.reactors);
    let setup_s = setup.elapsed().as_secs_f64();
    plab_obs::metrics::reset();
    let (pass, span) = run_pass(&mut world, seed, size.rounds, traced);
    let obs = traced.then(|| {
        plab_obs::disable();
        ObsSnapshot::take()
    });
    (
        Rep {
            setup_s,
            span,
            pass,
        },
        world,
        obs,
    )
}

/// Run the `endpoint_monitor` workload.
pub fn run(args: &Args) -> Outcome {
    let size = size(args.tiny);
    let mut reps = Vec::new();
    let mut traced = None;
    let mut peak_rss_mb = 0.0;
    if args.trace {
        reps.push(one_rep(&size, args.seed, false).0);
        let (rep, world, obs) = one_rep(&size, args.seed, true);
        traced = Some((rep, world, obs.expect("traced run snapshots obs")));
    } else {
        reps = crate::repeat(args.seconds, 3, || {
            let rep = one_rep(&size, args.seed, false).0;
            if peak_rss_mb == 0.0 {
                peak_rss_mb = sys::peak_rss_mb();
            }
            rep
        });
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < 9 {
        let t = Instant::now();
        black_box(World::build(size.reactors));
        setups.push(t.elapsed().as_secs_f64());
    }

    let first = &reps[0].pass;
    let mut correct = true;
    let mut notes = Vec::new();
    for (i, p) in reps
        .iter()
        .map(|r| &r.pass)
        .chain(traced.as_ref().map(|(r, _, _)| &r.pass))
        .enumerate()
    {
        if p.digest != first.digest {
            correct = false;
            notes.push(format!(
                "run {i} digest {:016x} != {:016x}",
                p.digest, first.digest
            ));
        }
        if p.failed > 0 {
            correct = false;
            notes.extend(p.notes.iter().map(|n| format!("run {i}: {n}")));
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.pass.commands).sum();
    let failed: u64 = reps.iter().map(|r| r.pass.failed).sum();
    let tail_q = tail_percentile(first.turn_ns.len());
    println!(
        "endpoint_monitor: reactors {} sessions {} turns/pass {} commands/pass {} adjudicated/pass {} \
         runs {} digest {:016x} tail p{tail_q}",
        size.reactors,
        size.reactors * DEPTHS.len(),
        first.turns,
        first.commands,
        first.adjudicated,
        reps.len(),
        first.digest,
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "run {i}: wall {:.3} s setup {:.3} s runqueue_wait_share {:.4} adjudicated/s {:.0}",
            r.span.wall_s,
            r.setup_s,
            r.span.runqueue_wait_share(),
            r.pass.adjudicated as f64 / r.span.wall_s,
        );
    }

    let mut metrics = Metrics::default();
    if let Some((t, world, obs)) = &traced {
        let u = &reps[0];
        let tr = t.pass.trace.as_ref().expect("traced pass keeps a trace");
        let mut l = Ledger::default();
        l.read_obs(obs);
        let turns = u.pass.turns as f64;
        l.runner_handoffs_per_task = u.span.switches() as f64 / turns;
        l.runner_blocked_share = u.span.blocked_share();
        l.runner_sched_busy_share = u.span.busy_share();
        l.runner_runqueue_wait_share = u.span.runqueue_wait_share();
        l.runner_max_in_flight = 1.0;
        l.controller_cpu_share = u.span.other_threads_cpu_share();
        l.controller_cmds_per_task = u.pass.commands as f64 / turns;
        l.controller_connects = (size.reactors * DEPTHS.len()) as f64;

        // Authentication happens in set-up, so the crypto share is of
        // set-up time.
        l.crypto_verifies = world.verifies as f64;
        l.crypto_signs = world.signs as f64;
        let trusted = [KeyHash::of(&world.operator.public)];
        let wall_time = EndpointConfig::default().wall_time;
        let mut crypto_s = 0.0;
        let (mut verify_us, mut sign_us, mut chain_us) = (0.0, 0.0, 0.0);
        for &depth in &DEPTHS {
            let c = probes::crypto(&world.sample_creds[&depth], &trusted, wall_time);
            let w = 1.0 / DEPTHS.len() as f64;
            verify_us += w * c.verify_us;
            sign_us += w * c.sign_us;
            chain_us += w * c.verify_chain_us;
            let certs = (depth + 1) as f64;
            crypto_s += size.reactors as f64
                * (c.verify_chain_us + c.verify_us + (certs + 1.0) * c.sign_us)
                / 1e6;
        }
        l.crypto_verify_us = verify_us;
        l.crypto_sign_us = sign_us;
        l.crypto_verify_chain_us = chain_us;
        l.crypto_share = crypto_s / u.setup_s;

        l.wire_msgs = u.pass.frames as f64;
        let w = probes::wire(&tr.messages);
        l.wire_encode_ns = w.encode_ns;
        l.wire_decode_ns = w.decode_ns;
        l.wire_share = l.wire_msgs * (w.encode_ns + w.decode_ns) / 1e9 / u.span.wall_s;

        l.reactor_pump_us_per_cmd = tr.reactor_ns as f64 / 1e3 / t.pass.commands as f64;
        let mut cmd_ns = tr.cmd_ns.clone();
        cmd_ns.sort_unstable();
        l.reactor_cmd_latency_us_p50 = percentile_sorted(&cmd_ns, 50.0) as f64 / 1e3;

        let info = info_block(1 << 40);
        let mut pfvm_s = 0.0;
        let mut instantiate_us = 0.0;
        for (&depth, chain) in &world.chains {
            let p = probes::pfvm(chain, &tr.streams[&depth], &info);
            match depth {
                1 => {
                    l.pfvm_adj_ns_d1 = p.adj_ns;
                    l.pfvm_adj_ns_seq_d1 = p.adj_ns_seq;
                }
                2 => l.pfvm_adj_ns_d2 = p.adj_ns,
                _ => {
                    l.pfvm_adj_ns_d4 = p.adj_ns;
                    l.pfvm_adj_ns_seq_d4 = p.adj_ns_seq;
                }
            }
            let sessions = DEPTHS.iter().filter(|&&d| d == depth).count() as f64;
            instantiate_us += sessions / DEPTHS.len() as f64 * p.instantiate_us;
            pfvm_s += u.pass.adjudicated_by_depth[&depth] as f64 * p.adj_ns / 1e9;
        }
        l.pfvm_instantiate_us = instantiate_us;
        l.pfvm_share = pfvm_s / u.span.wall_s;
        l.cpf_compile_us = probes::cpf_compile_us(&[
            monitors::FIGURE2,
            monitors::QUOTA,
            monitors::ICMP_ONLY,
            monitors::DST_ALLOWLIST,
            monitors::CAPTURE_FILTER,
        ]);
        // The timed pass has no crypto: everything but wire and PFVM is
        // reactor and agent work, plus the frame copies in and out of
        // the in-memory stack.
        l.unattributed_share = (l.runner_sched_busy_share - l.wire_share - l.pfvm_share).max(0.0);
        l.trace_overhead = t.span.wall_s / u.span.wall_s;
        l.check_task_fail_ratio = failed as f64 / attempted as f64;
        l.emit(&mut metrics);
    } else {
        // The slower quartile of the run's passes (see
        // `report::lower_quartile`).
        let rates =
            |f: &dyn Fn(&Rep) -> f64| lower_quartile(&reps.iter().map(f).collect::<Vec<_>>());
        let times =
            |f: &dyn Fn(&Rep) -> f64| upper_quartile(&reps.iter().map(f).collect::<Vec<_>>());
        let turn_ms = |r: &Rep, q: f64| {
            let mut v = r.pass.turn_ns.clone();
            v.sort_unstable();
            percentile_sorted(&v, q) as f64 / 1e6
        };
        let per_s = |r: &Rep, n: u64| n as f64 / r.span.wall_s;
        metrics.put("endpoints_per_s", "1/s", rates(&|r| per_s(r, r.pass.turns)));
        metrics.put("exp_latency_ms_p50", "ms", times(&|r| turn_ms(r, 50.0)));
        metrics.put("exp_latency_ms_tail", "ms", times(&|r| turn_ms(r, tail_q)));
        metrics.put(
            "adjudicated_pkts_per_s",
            "1/s",
            rates(&|r| per_s(r, r.pass.adjudicated)),
        );
        metrics.put("setup_s", "s", upper_quartile(&setups));
        metrics.put("peak_rss_mb", "MB", peak_rss_mb);
    }
    let runqueue = median(
        &reps
            .iter()
            .map(|r| r.span.runqueue_wait_share())
            .collect::<Vec<_>>(),
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        runqueue_wait_share: runqueue,
        roster_threads: 1,
    }
}

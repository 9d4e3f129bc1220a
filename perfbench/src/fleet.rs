//! `fleet_ping` and `fleet_bwest`: one experiment fanned over a roster
//! through `plab_runner::run_fleet`, exactly as a user of the runner
//! drives it.

use packetlab::controller::robust::RetryStats;
use packetlab::endpoint::EndpointConfig;
use packetlab::wire::{Command, Message, Proto, Response};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::fault::FaultAction;
use plab_netsim::roster::{RosterSpec, HOSTS_PER_POD};
use plab_runner::{
    build_fleet, run_fleet, Detail, ExperimentSpec, FleetWorld, Outcome, Program, RateLimit,
    SchedulerConfig,
};
use std::time::Instant;

use crate::ledger::{Ledger, ObsSnapshot};
use crate::monitors;
use crate::probes::{self, Adjudication};
use crate::report::{median, percentile_sorted, tail_percentile, upper_quartile, Metrics};
use crate::sys::{self, Span};
use crate::{Args, Outcome as BenchOutcome};

/// Configured access-link rate of every `fleet_bwest` endpoint, Mbit/s.
pub const BWEST_MBPS: u64 = 10;
/// Largest accepted |estimate - truth| / truth, percent.
pub const BWEST_TOLERANCE_PCT: f64 = 20.0;

/// Roster threads. The report does not depend on it, and with one
/// thread every netsim, endpoint and PFVM counter lands on the calling
/// thread, where a traced run reads them.
const ROSTER_THREADS: usize = 1;

/// Which fleet workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// §4 ping under the Figure-2 monitor.
    Ping,
    /// Dispersion train into a UDP sink over 10 Mbit/s access links.
    Bwest,
}

struct Shape {
    pairs: usize,
    access_mbps: u64,
    spec: ExperimentSpec,
    config: SchedulerConfig,
    monitor_src: &'static str,
}

fn shape(kind: Kind, tiny: bool) -> Shape {
    match kind {
        Kind::Ping => Shape {
            pairs: if tiny { 16 } else { 512 },
            access_mbps: 0,
            spec: plab_bench::fleet::spec(),
            config: plab_bench::fleet::config(),
            monitor_src: monitors::FIGURE2,
        },
        Kind::Bwest => {
            let pairs = if tiny { 8 } else { 256 };
            Shape {
                pairs,
                access_mbps: BWEST_MBPS,
                spec: ExperimentSpec {
                    name: "fleet-bwest".into(),
                    monitor: Some(monitors::UDP_SINK.into()),
                    program: Program::Bwest {
                        sink_port: monitors::BWEST_SINK_PORT,
                        train_len: 48,
                        payload_len: 1000,
                    },
                    priority: 10,
                },
                // Every task in flight at once.
                config: SchedulerConfig {
                    max_concurrency: pairs,
                    launch: RateLimit::UNLIMITED,
                    ..plab_bench::fleet::config()
                },
                monitor_src: monitors::UDP_SINK,
            }
        }
    }
}

fn keys() -> (Keypair, Keypair) {
    (Keypair::from_seed(&[31; 32]), Keypair::from_seed(&[32; 32]))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build the roster world of `pairs` pairs for `seed`. The seed is the
/// roster's RNG seed (which draws link jitter) and also sets each pair's
/// controller-link delay: 1 ms plus up to 0.5 ms, with 20 µs of jitter,
/// applied at virtual time 0.
fn build(shape: &Shape, pairs: usize, seed: u64) -> FleetWorld {
    let (operator, _) = keys();
    let roster = RosterSpec {
        pairs,
        shards: plab_bench::fleet::SHARDS,
        threads: ROSTER_THREADS,
        seed,
        access_mbps: shape.access_mbps,
    };
    let mut world = build_fleet(&roster, &operator);
    for (i, pair) in world.pairs.iter().enumerate() {
        let pod = world
            .net
            .sim
            .node_by_name(&format!("cpod{}", i / HOSTS_PER_POD))
            .expect("roster has the controller pod");
        let link = world
            .net
            .sim
            .link_between(pair.controller, pod)
            .expect("controller hangs off its pod");
        let extra_ns = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37)) % 500_000;
        world.net.sim.schedule_fault(
            0,
            FaultAction::SetDelay {
                link,
                latency: 1_000_000 + extra_ns,
                jitter: 20_000,
            },
        );
    }
    world
}

/// What one fleet run produced, reduced to what the metrics need.
struct Rep {
    setup_s: f64,
    span: Span,
    digest: u64,
    tasks: usize,
    completed: usize,
    failed: usize,
    /// Completed tasks whose output failed its check.
    wrong: usize,
    /// Virtual task times of completed tasks, ns, sorted.
    latencies: Vec<u64>,
    max_in_flight: usize,
    stats: RetryStats,
    bw_error_pct_max: f64,
}

/// Whether a completed task's output is right, and its bandwidth
/// error in percent (0 for ping).
fn check_task(kind: Kind, detail: &Detail) -> (bool, f64) {
    match (kind, detail) {
        (Kind::Ping, Detail::Ping { sent, replies, .. }) => (*sent == 2 && *replies == 2, 0.0),
        (Kind::Bwest, Detail::Bwest { kbits_per_sec, .. }) => {
            let truth = (BWEST_MBPS * 1000) as f64;
            let err = (*kbits_per_sec as f64 - truth).abs() * 100.0 / truth;
            (err <= BWEST_TOLERANCE_PCT, err)
        }
        _ => (false, 0.0),
    }
}

fn max_in_flight(results: &[plab_runner::TaskResult]) -> usize {
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(results.len() * 2);
    for r in results {
        edges.push((r.started_ns, 1));
        edges.push((r.finished_ns, -1));
    }
    // Finishes sort before starts at the same instant.
    edges.sort_unstable();
    let (mut cur, mut max) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

fn one_rep(kind: Kind, shape: &Shape, seed: u64, traced: bool) -> (Rep, Option<ObsSnapshot>) {
    let (operator, experimenter) = keys();
    let setup = Instant::now();
    let world = build(shape, shape.pairs, seed);
    let setup_s = setup.elapsed().as_secs_f64();
    if traced {
        plab_obs::metrics::reset();
        plab_obs::enable();
    }
    let (run, span) = sys::span(|| {
        run_fleet(world, &shape.spec, &operator, &experimenter, &shape.config)
            .expect("workload spec is valid")
    });
    let obs = traced.then(|| {
        plab_obs::disable();
        ObsSnapshot::take()
    });
    let mut rep = Rep {
        setup_s,
        span,
        digest: run.report.digest,
        tasks: run.results.len(),
        completed: 0,
        failed: 0,
        wrong: 0,
        latencies: Vec::with_capacity(run.results.len()),
        max_in_flight: max_in_flight(&run.results),
        stats: RetryStats::default(),
        bw_error_pct_max: 0.0,
    };
    for t in &run.results {
        let s = &t.stats;
        rep.stats.connects += s.connects;
        rep.stats.failed_dials += s.failed_dials;
        rep.stats.timeouts += s.timeouts;
        rep.stats.replays += s.replays;
        rep.stats.suspended_waits += s.suspended_waits;
        if t.outcome != Outcome::Completed {
            rep.failed += 1;
            continue;
        }
        rep.completed += 1;
        rep.latencies.push(t.finished_ns - t.started_ns);
        let (ok, err) = check_task(kind, &t.detail);
        if !ok {
            rep.wrong += 1;
            eprintln!(
                "perfbench: endpoint {} wrong output {:?}",
                t.endpoint, t.detail
            );
        }
        rep.bw_error_pct_max = rep.bw_error_pct_max.max(err);
    }
    rep.latencies.sort_unstable();
    (rep, obs)
}

/// One task run alone, pair 0 of the roster, with `plab-obs` recording.
struct Recorded {
    /// The task completed.
    completed: bool,
    /// Opcodes of the commands the endpoint executed for it, in order
    /// (numbered as the endpoint's `cmd` events number them).
    ops: Vec<u64>,
    /// PFVM adjudications the endpoint made for it.
    adjudications: u64,
}

fn record_task(shape: &Shape, seed: u64) -> Recorded {
    let (operator, experimenter) = keys();
    let world = build(shape, 1, seed);
    plab_obs::reset();
    plab_obs::enable();
    let run = run_fleet(world, &shape.spec, &operator, &experimenter, &shape.config)
        .expect("workload spec is valid");
    plab_obs::disable();
    let ops = plab_obs::snapshot()
        .iter()
        .filter(|e| e.component == plab_obs::Component::Endpoint && e.name == "cmd")
        .map(|e| e.b)
        .collect();
    let adjudications = plab_obs::metrics::counter("pfvm.adjudications");
    plab_obs::reset();
    Recorded {
        completed: run.results.iter().all(|t| t.outcome == Outcome::Completed),
        ops,
        adjudications,
    }
}

/// The commands of the recorded task, in order, with their replies: the
/// message mix the wire probe times. The sequence of opcodes is the
/// recorded one; the sizes are modelled on `program`: probes and train
/// packets at their configured sizes, the task's packets spread evenly
/// over its `NPoll` replies, 8-byte memory reads and writes.
fn message_mix(program: Program, ops: &[u64]) -> Vec<Message> {
    let (proto, packet_len, packets) = match program {
        Program::Ping {
            count, payload_len, ..
        } => (Proto::Raw, 28 + payload_len, count as usize),
        Program::Bwest {
            train_len,
            payload_len,
            ..
        } => (Proto::Udp, payload_len, train_len as usize),
        _ => (Proto::Raw, 64, 0),
    };
    let polls = ops.iter().filter(|&&op| op == 5).count().max(1);
    let mut poll = 0;
    let mut out = Vec::with_capacity(2 * ops.len());
    for (i, &op) in ops.iter().enumerate() {
        let (cmd, resp) = match op {
            1 => (
                Command::NOpen {
                    sktid: 1,
                    proto,
                    locport: 0,
                    remaddr: 0,
                    remport: 0,
                },
                Response::Ok,
            ),
            2 => (Command::NClose { sktid: 1 }, Response::Ok),
            3 => (
                Command::NSend {
                    sktid: 1,
                    time: 1,
                    data: vec![0xa5; packet_len],
                },
                Response::SendQueued { tag: 1 },
            ),
            4 => (
                Command::NCap {
                    sktid: 1,
                    time: u64::MAX,
                    filt: monitors::compile("capture", monitors::CAPTURE_FILTER),
                },
                Response::Ok,
            ),
            5 => {
                let share = (poll * packets / polls)..((poll + 1) * packets / polls);
                poll += 1;
                (
                    Command::NPoll { time: 1 },
                    Response::Poll {
                        packets: share
                            .map(|k| (1, k as u64, vec![0xa5; packet_len]))
                            .collect(),
                        dropped_packets: 0,
                        dropped_bytes: 0,
                    },
                )
            }
            6 => (
                Command::MRead {
                    memaddr: 0,
                    bytecnt: 8,
                },
                Response::Mem { data: vec![0; 8] },
            ),
            7 => (
                Command::MWrite {
                    memaddr: 0,
                    data: vec![0; 8],
                },
                Response::Ok,
            ),
            _ => (Command::Yield, Response::Ok),
        };
        let seq = i as u64 + 1;
        out.push(Message::CmdSeq { seq, cmd });
        out.push(Message::RespSeq { seq, resp });
    }
    out
}

/// The packets one task's monitor adjudicates, in order.
fn adjudication_mix(
    program: Program,
    src: std::net::Ipv4Addr,
    dst: std::net::Ipv4Addr,
) -> Vec<Adjudication> {
    use plab_packet::builder;
    match program {
        Program::Ping {
            count, payload_len, ..
        } => {
            let mut out = Vec::new();
            for i in 0..count as u16 {
                let payload = vec![0xa5; payload_len];
                out.push(Adjudication {
                    send: true,
                    packet: builder::icmp_echo_request(src, dst, 64, 0x504c, i, &payload),
                });
                out.push(Adjudication {
                    send: false,
                    packet: builder::icmp_echo_reply(dst, src, 0x504c, i, &payload),
                });
            }
            out
        }
        Program::Bwest {
            train_len,
            payload_len,
            sink_port,
        } => (0..train_len)
            .map(|_| Adjudication {
                send: true,
                packet: builder::udp_datagram(src, dst, 21_900, sink_port, &vec![0; payload_len]),
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Run a fleet workload.
pub fn run(kind: Kind, args: &Args) -> BenchOutcome {
    let shape = shape(kind, args.tiny);
    // The runner passes a baton between its scheduler thread and one
    // thread per task, so exactly one of them runs at a time. Left to
    // the kernel, handoffs sometimes cross CPUs and sometimes do not,
    // and identical runs differ by 1.6x on a 2-CPU machine depending on
    // which. Pin the calling thread, and so every task thread it
    // starts, to one CPU; a traced run also takes one unpinned reading.
    let cpus = sys::affinity();
    let pinned = sys::first_cpu(&cpus);
    sys::set_affinity(&pinned);
    let recorded = record_task(&shape, args.seed);
    let mut reps = Vec::new();
    let mut traced = None;
    let mut unpinned = None;
    let mut peak_rss_mb = 0.0;
    if args.trace {
        // One untraced run for wall-time shares and the digest, one
        // traced run for the counters, one untraced run unpinned.
        reps.push(one_rep(kind, &shape, args.seed, false).0);
        let (rep, obs) = one_rep(kind, &shape, args.seed, true);
        traced = Some((rep, obs.expect("traced run snapshots obs")));
        sys::set_affinity(&cpus);
        unpinned = Some(one_rep(kind, &shape, args.seed, false).0);
        sys::set_affinity(&pinned);
    } else {
        reps = crate::repeat(args.seconds, 1, || {
            let rep = one_rep(kind, &shape, args.seed, false).0;
            if peak_rss_mb == 0.0 {
                peak_rss_mb = sys::peak_rss_mb();
            }
            rep
        });
    }
    // Set-up is cheap next to a run: repeat it so its figure rests on
    // at least nine samples.
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < 9 {
        let t = Instant::now();
        drop(build(&shape, shape.pairs, args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }

    let first = &reps[0];
    let mut notes = Vec::new();
    let mut correct = recorded.completed;
    if !recorded.completed {
        notes.push("the task run alone did not complete".into());
    }
    for (i, r) in reps
        .iter()
        .chain(traced.as_ref().map(|(r, _)| r))
        .chain(unpinned.as_ref())
        .enumerate()
    {
        if r.digest != first.digest {
            correct = false;
            notes.push(format!(
                "run {i} digest {:016x} != {:016x}",
                r.digest, first.digest
            ));
        }
        if r.wrong > 0 {
            correct = false;
            notes.push(format!(
                "run {i}: {} completed tasks gave a wrong output",
                r.wrong
            ));
        }
        // A clean roster completes every task: a failed or aborted one
        // is a wrong output too.
        if r.failed > 0 {
            correct = false;
            notes.push(format!(
                "run {i}: {} of {} tasks failed or aborted",
                r.failed, r.tasks
            ));
        }
    }
    let attempted: usize = reps.iter().map(|r| r.tasks).sum();
    let failed: usize = reps.iter().map(|r| r.failed).sum();
    let tail_q = tail_percentile(first.latencies.len());

    println!(
        "fleet: pairs {} runs {} digest {:016x} completed {}/{} in-flight max {} tail p{tail_q} \
         bw_error_pct_max {:.3}",
        shape.pairs,
        reps.len(),
        first.digest,
        first.completed,
        first.tasks,
        first.max_in_flight,
        first.bw_error_pct_max,
    );
    println!(
        "recorded task: {} commands, {} PFVM adjudications, opcodes {:?}",
        recorded.ops.len(),
        recorded.adjudications,
        recorded.ops,
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "run {i}: wall {:.3} s setup {:.3} s runqueue_wait_share {:.4} endpoints/s {:.2} \
             process_cpu {:.3} s scheduler_thread_cpu {:.3} s context_switches {}",
            r.span.wall_s,
            r.setup_s,
            r.span.runqueue_wait_share(),
            r.completed as f64 / r.span.wall_s,
            r.span.process_cpu_ns as f64 / 1e9,
            r.span.thread.run_ns as f64 / 1e9,
            r.span.switches(),
        );
    }

    let mut metrics = Metrics::default();
    let ms = |ns: u64| ns as f64 / 1e6;
    if let Some((t, obs)) = &traced {
        let u = first;
        let mut l = Ledger::default();
        l.read_obs(obs);
        let tasks = u.tasks as f64;
        l.runner_handoffs_per_task = u.span.switches() as f64 / tasks;
        l.runner_blocked_share = u.span.blocked_share();
        l.runner_sched_busy_share = u.span.busy_share();
        l.runner_runqueue_wait_share = u.span.runqueue_wait_share();
        l.runner_max_in_flight = u.max_in_flight as f64;
        let un = unpinned
            .as_ref()
            .expect("traced run takes an unpinned reading");
        l.runner_unpinned_endpoints_per_s = un.completed as f64 / un.span.wall_s;
        l.runner_unpinned_blocked_us_per_handoff =
            un.span.blocked_share() * un.span.wall_s * 1e6 / un.span.switches().max(1) as f64;
        l.controller_cpu_share = u.span.other_threads_cpu_share();
        l.controller_cmds_per_task = l.reactor_commands / tasks;
        l.controller_connects = f64::from(t.stats.connects);
        l.controller_timeouts = f64::from(t.stats.timeouts);
        l.controller_replays = f64::from(t.stats.replays);
        l.controller_failed_dials = f64::from(t.stats.failed_dials);
        l.controller_suspended_waits = f64::from(t.stats.suspended_waits);

        let (operator, experimenter) = keys();
        let creds = shape
            .spec
            .credentials(&operator, &experimenter, "10.32.0.1:7000")
            .expect("workload spec is valid");
        let c = probes::crypto(
            &creds,
            &[KeyHash::of(&operator.public)],
            EndpointConfig::default().wall_time,
        );
        let connects = f64::from(t.stats.connects);
        l.crypto_verifies = connects * (creds.chain.len() as f64 + 1.0);
        l.crypto_signs = connects;
        l.crypto_verify_us = c.verify_us;
        l.crypto_sign_us = c.sign_us;
        l.crypto_verify_chain_us = c.verify_chain_us;
        l.crypto_share =
            connects * (c.verify_chain_us + c.verify_us + c.sign_us) / 1e6 / u.span.wall_s;

        // Every command and reply, plus the four handshake messages of
        // each connect.
        l.wire_msgs = 2.0 * l.reactor_commands + 4.0 * connects;
        let w = probes::wire(&message_mix(shape.spec.program, &recorded.ops));
        l.wire_encode_ns = w.encode_ns;
        l.wire_decode_ns = w.decode_ns;
        l.wire_share = l.wire_msgs * (w.encode_ns + w.decode_ns) / 1e9 / u.span.wall_s;

        let chain = vec![monitors::compile("workload", shape.monitor_src)];
        let src: std::net::Ipv4Addr = "11.32.0.1".parse().expect("literal address");
        let dst: std::net::Ipv4Addr = "10.32.0.1".parse().expect("literal address");
        let mut info = vec![0u8; plab_packet::layout::INFO_SIZE];
        plab_packet::layout::resolve_info("addr.ip")
            .expect("info field exists")
            .write_le(&mut info, u64::from(u32::from(src)));
        let p = probes::pfvm(
            &chain,
            &adjudication_mix(shape.spec.program, src, dst),
            &info,
        );
        l.pfvm_adj_ns_d1 = p.adj_ns;
        l.pfvm_adj_ns_seq_d1 = p.adj_ns_seq;
        l.pfvm_instantiate_us = p.instantiate_us;
        l.pfvm_share = l.pfvm_adjudications * p.adj_ns / 1e9 / u.span.wall_s;
        l.cpf_compile_us = probes::cpf_compile_us(&[shape.monitor_src]);
        println!(
            "fleet mean per task: {:.2} commands, {:.2} PFVM adjudications",
            l.controller_cmds_per_task,
            l.pfvm_adjudications / tasks,
        );
        l.settle_unattributed();
        l.trace_overhead = t.span.wall_s / u.span.wall_s;
        l.check_task_fail_ratio = failed as f64 / attempted as f64;
        l.check_bw_error_pct_max = first.bw_error_pct_max;
        l.emit(&mut metrics);
    } else {
        // Rates: the work of every fleet run over their summed wall
        // time. A budget holds only a handful of fleet runs, and a
        // quantile of so few jumps with the share of them a machine
        // slowdown caught; the pooled rate moves smoothly with it. Task
        // latencies are virtual time, the same in every run.
        let wall_s: f64 = reps.iter().map(|r| r.span.wall_s).sum();
        let per_s = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>() / wall_s;
        metrics.put("endpoints_per_s", "1/s", per_s(&|r| r.completed as f64));
        metrics.put(
            "exp_latency_ms_p50",
            "ms",
            ms(percentile_sorted(&first.latencies, 50.0)),
        );
        metrics.put(
            "exp_latency_ms_tail",
            "ms",
            ms(percentile_sorted(&first.latencies, tail_q)),
        );
        // A fleet's adjudication rate is its task rate times the PFVM
        // adjudications one task makes, as the recorded task counted
        // them: a fixed multiple of `endpoints_per_s` at one seed.
        metrics.put(
            "adjudicated_pkts_per_s",
            "1/s",
            per_s(&|r| (r.completed as u64 * recorded.adjudications) as f64),
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
    BenchOutcome {
        correct,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
        notes,
        runqueue_wait_share: runqueue,
        roster_threads: ROSTER_THREADS,
    }
}

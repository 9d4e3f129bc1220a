//! Layer probes: the benchmark times its own calls into one layer's
//! public functions, on the inputs the workload itself uses. Each probe
//! reports a median over several samples, so one descheduling does not
//! move it.

use packetlab::cert;
use packetlab::controller::Credentials;
use packetlab::monitor::MonitorSet;
use packetlab::wire::{FrameDecoder, Message};
use plab_crypto::{ed25519, KeyHash};
use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// Samples per probe.
const SAMPLES: usize = 9;

/// Median over [`SAMPLES`] samples of the ns one call of `f` takes,
/// where each sample times `iters` calls.
pub fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Crypto layer timings, µs per call.
pub struct CryptoProbe {
    /// `ed25519::verify` of the session's possession proof.
    pub verify_us: f64,
    /// `Keypair::sign` of the possession proof.
    pub sign_us: f64,
    /// `cert::verify_chain` of the workload's chain.
    pub verify_chain_us: f64,
}

/// Time the three crypto operations an authentication performs, on
/// `creds` (the workload's own chain) as an endpoint trusting
/// `trusted` would run them.
pub fn crypto(creds: &Credentials, trusted: &[KeyHash], wall_time: u64) -> CryptoProbe {
    let dhash = creds.descriptor.hash();
    let mut msg = vec![0x5a; 32];
    msg.extend_from_slice(&dhash.0);
    let sig = creds.signing_key.sign(&msg);
    let key_map = cert::key_map(&creds.keys);
    let sign_us = ns_per_call(4, || {
        black_box(creds.signing_key.sign(black_box(&msg)));
    }) / 1e3;
    let verify_us = ns_per_call(4, || {
        assert!(ed25519::verify(
            &creds.signing_key.public,
            black_box(&msg),
            &sig
        ));
    }) / 1e3;
    let verify_chain_us = ns_per_call(2, || {
        cert::verify_chain(&creds.chain, &key_map, trusted, &dhash, wall_time)
            .expect("the workload's chain verifies");
    }) / 1e3;
    CryptoProbe {
        verify_us,
        sign_us,
        verify_chain_us,
    }
}

/// Wire layer timings, ns per message.
pub struct WireProbe {
    /// `Message::to_frame` (encode plus framing).
    pub encode_ns: f64,
    /// `FrameDecoder` reassembly plus `Message::decode`.
    pub decode_ns: f64,
}

/// Time encoding and decoding `mix`, the workload's message mix.
pub fn wire(mix: &[Message]) -> WireProbe {
    assert!(!mix.is_empty(), "empty message mix");
    let frames: Vec<Vec<u8>> = mix.iter().map(Message::to_frame).collect();
    let stream: Vec<u8> = frames.concat();
    let n = mix.len() as f64;
    let encode_ns = ns_per_call(8, || {
        for m in mix {
            black_box(m.to_frame());
        }
    }) / n;
    let decode_ns = ns_per_call(8, || {
        let mut dec = FrameDecoder::new();
        dec.extend(black_box(&stream));
        let mut got = 0;
        while let Some(frame) = dec.next_frame().expect("mix frames decode") {
            black_box(Message::decode(&frame).expect("mix messages decode"));
            got += 1;
        }
        assert_eq!(got, mix.len());
    }) / n;
    WireProbe {
        encode_ns,
        decode_ns,
    }
}

/// One packet of an adjudication stream.
#[derive(Clone)]
pub struct Adjudication {
    /// `true` for the send entry, `false` for recv.
    pub send: bool,
    /// The packet.
    pub packet: Vec<u8>,
}

/// PFVM timings for one chain.
pub struct PfvmProbe {
    /// ns per adjudication on the fused engine.
    pub adj_ns: f64,
    /// ns per adjudication on the sequential reference engine.
    pub adj_ns_seq: f64,
    /// `MonitorSet::instantiate`, µs.
    pub instantiate_us: f64,
}

fn adjudicate_all(set: &mut MonitorSet, stream: &[Adjudication], info: &[u8]) -> usize {
    let mut allowed = 0;
    for a in stream {
        let ok = if a.send {
            set.allow_send(black_box(&a.packet), info)
        } else {
            set.allow_recv(black_box(&a.packet), info)
        };
        allowed += usize::from(ok);
    }
    allowed
}

/// Time `chain` (encoded monitors, root first) adjudicating `stream`
/// under `info`, on both engines, and its instantiation.
pub fn pfvm(chain: &[Vec<u8>], stream: &[Adjudication], info: &[u8]) -> PfvmProbe {
    assert!(!stream.is_empty(), "empty adjudication stream");
    let n = stream.len() as f64;
    let mut fused = MonitorSet::instantiate(chain, info).expect("workload chain instantiates");
    let mut seq =
        MonitorSet::instantiate_sequential(chain, info).expect("workload chain instantiates");
    let adj_ns = ns_per_call(4, || {
        black_box(adjudicate_all(&mut fused, stream, info));
    }) / n;
    let adj_ns_seq = ns_per_call(4, || {
        black_box(adjudicate_all(&mut seq, stream, info));
    }) / n;
    let instantiate_us = ns_per_call(4, || {
        black_box(MonitorSet::instantiate(chain, info).expect("workload chain instantiates"));
    }) / 1e3;
    PfvmProbe {
        adj_ns,
        adj_ns_seq,
        instantiate_us,
    }
}

/// µs to compile every source in `sources` with `plab_cpf::compile`.
pub fn cpf_compile_us(sources: &[&str]) -> f64 {
    ns_per_call(2, || {
        for src in sources {
            black_box(plab_cpf::compile(black_box(src)).expect("workload monitor compiles"));
        }
    }) / 1e3
}

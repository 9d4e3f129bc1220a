//! The Cpf monitors the workloads run under, as named constants.
//!
//! Real delegation chains add a restriction per level, so the
//! `endpoint_monitor` chains mix four different monitors instead of
//! repeating one. Every constant compiles with `plab_cpf::compile`; the
//! benchmark compiles each one during set-up and times it for the `cpf`
//! layer.

use packetlab::controller::experiments::ICMP_CAPTURE_FILTER;

/// The paper's Figure-2 monitor: only ICMP echo requests from the
/// endpoint's own address leave, and only echo replies from the last
/// pinged host (or time-exceeded errors quoting our probe) come back.
pub const FIGURE2: &str = plab_bench::FIGURE2_MONITOR;

/// UDP port of the controller-side sink the `fleet_bwest` trains target.
pub const BWEST_SINK_PORT: u16 = 7100;

/// `fleet_bwest` monitor: the endpoint may only send UDP from its own
/// address to the controller's sink port, and captures nothing. The
/// Figure-2 monitor denies UDP, so the dispersion probe needs this one.
pub const UDP_SINK: &str = r#"
uint32_t send(const union packet * pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
        pkt->ip.proto == IPPROTO_UDP &&
        pkt->ip.src == info->addr.ip &&
        pkt->ip.udp.dport == 7100)
        return len;
    return 0;
}

uint32_t recv(const union packet * pkt, uint32_t len) {
    return 0;
}
"#;

/// Destinations the dst-allowlist monitor admits: 10.0.99.1 through
/// 10.0.99.4. The `endpoint_monitor` probes also target 10.0.99.9, which
/// only chains without this monitor allow.
pub const ALLOWED_DSTS: [[u8; 4]; 4] = [
    [10, 0, 99, 1],
    [10, 0, 99, 2],
    [10, 0, 99, 3],
    [10, 0, 99, 4],
];

/// Dst-allowlist monitor: sends only to [`ALLOWED_DSTS`]. Addresses are
/// compared as numeric `u32` values (0x0a006301 is 10.0.99.1).
pub const DST_ALLOWLIST: &str = r#"
uint32_t send(const union packet * pkt, uint32_t len) {
    if (pkt->ip.dst == 0x0a006301 || pkt->ip.dst == 0x0a006302 ||
        pkt->ip.dst == 0x0a006303 || pkt->ip.dst == 0x0a006304)
        return len;
    return 0;
}
"#;

/// Sends the quota monitor admits per window of endpoint clock.
pub const QUOTA_PER_WINDOW: u32 = 20;

/// Quota monitor, after the quota test in `crates/core/src/monitor.rs`,
/// with the count reset each 2^30 ns (about 1.07 s) of endpoint clock so
/// that a long-running experiment keeps a working budget: at most
/// [`QUOTA_PER_WINDOW`] sends per window.
pub const QUOTA: &str = r#"
uint32_t window = 0;
uint32_t used = 0;

uint32_t send(const union packet * pkt, uint32_t len) {
    uint32_t now = info->clock >> 30;
    if (now != window) {
        window = now;
        used = 0;
    }
    if (used >= 20) return 0;
    used = used + 1;
    return len;
}
"#;

/// ICMP-only monitor, from the tests in `crates/core/src/monitor.rs`.
pub const ICMP_ONLY: &str = r#"
uint32_t send(const union packet * pkt, uint32_t len) {
    if (pkt->ip.proto == IPPROTO_ICMP) return len;
    return 0;
}
"#;

/// Capture filter the `endpoint_monitor` sessions install with `NCap`:
/// the measurement library's ICMP capture filter.
pub const CAPTURE_FILTER: &str = ICMP_CAPTURE_FILTER;

/// Compile a monitor, naming it in the panic if the source is wrong (a
/// bug in this file, not an input error).
pub fn compile(name: &str, src: &str) -> Vec<u8> {
    plab_cpf::compile(src)
        .unwrap_or_else(|e| panic!("monitor {name} does not compile: {e}"))
        .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_monitor_compiles() {
        for (name, src) in [
            ("figure2", FIGURE2),
            ("udp_sink", UDP_SINK),
            ("dst_allowlist", DST_ALLOWLIST),
            ("quota", QUOTA),
            ("icmp_only", ICMP_ONLY),
            ("capture", CAPTURE_FILTER),
        ] {
            assert!(!compile(name, src).is_empty());
        }
    }

    #[test]
    fn constants_match_sources() {
        assert!(QUOTA.contains(&format!("used >= {QUOTA_PER_WINDOW}")));
        assert!(UDP_SINK.contains(&format!("dport == {BWEST_SINK_PORT}")));
        for [a, b, c, d] in ALLOWED_DSTS {
            let hex = format!("0x{:08x}", u32::from_be_bytes([a, b, c, d]));
            assert!(
                DST_ALLOWLIST.contains(&hex),
                "{hex} missing from the allowlist"
            );
        }
    }
}

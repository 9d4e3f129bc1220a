//! Smoke test: every workload at tiny sizes, untraced and traced. The
//! last output line must parse as JSON and carry every metric
//! `BENCHMARK.json` names, with its unit; a traced run must repeat its
//! counts exactly at one seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough JSON for this test).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(map.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after JSON value");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"));
    spec.get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// The workloads `BENCHMARK.json` lists, plus `fleet_bwest`, which the
/// benchmark command runs but `BENCHMARK.json` leaves out (see README).
fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"));
    let mut names: Vec<String> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    if !names.iter().any(|n| n == "fleet_bwest") {
        names.push("fleet_bwest".into());
    }
    names
}

/// Run one tiny workload; returns the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    parse(last)
}

fn check_metrics(result: &Json, list: &str, workload: &str) {
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted not a number")
    };
    assert!(*attempted >= 1.0, "{workload}: nothing attempted");
    assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload}");
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics not an object")
    };
    let names = declared(list);
    assert_eq!(
        metrics.len(),
        names.len(),
        "{workload}: emits exactly the {list} metrics"
    );
    for (name, unit) in names {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        let Json::Num(v) = m.get("value") else {
            panic!("{workload}: {name} not a number")
        };
        assert!(v.is_finite() && *v >= 0.0, "{workload}: {name} = {v}");
        if list == "end_to_end" {
            assert!(*v > 0.0, "{workload}: end-to-end {name} reads 0");
        }
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in workloads() {
        check_metrics(&run(&w, 1, false), "end_to_end", &w);
    }
}

#[test]
fn traced_runs_emit_the_ledger_and_repeat_their_counts() {
    for w in workloads() {
        let a = run(&w, 5, true);
        check_metrics(&a, "per_layer", &w);
        let b = run(&w, 5, true);
        let counts = |r: &Json| -> Vec<(String, Json)> {
            let Json::Obj(m) = r.get("metrics") else {
                unreachable!()
            };
            m.iter()
                .filter(|(_, v)| matches!(v.get("unit").str(), "count" | "bytes"))
                .map(|(k, v)| (k.clone(), v.get("value").clone()))
                .collect()
        };
        assert_eq!(
            counts(&a),
            counts(&b),
            "{w}: counts differ between runs at one seed"
        );
        // A second seed runs clean too.
        check_metrics(&run(&w, 6, true), "per_layer", &w);
    }
}

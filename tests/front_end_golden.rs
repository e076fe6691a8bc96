//! Pins what every request path makes of a request's text: `wave check`
//! (human and `--json`: stdout, stderr and exit code) and
//! `VerifyService::run_request` (inline `spec` and `spec_path` jobs, each
//! fresh then cached, plus one whole-suite job). The inputs are every
//! lint fixture with its `.props` lines (or `G true`) and an unparsable
//! property, so parse errors, invalid specs, bad properties and every
//! diagnostic code go through both paths. Wall-clock figures are masked:
//! JSON keys ending `_ms` or `_pct`, and the durations the human output
//! prints.
//!
//! On a mismatch the rendered output is written to the system temp dir
//! as `front_end.actual` for inspection.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use wave_svc::{Json, ServiceConfig, VerifyService};

fn wave_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("wave{}", std::env::consts::EXE_SUFFIX));
    p
}

/// The fixture dir relative to the package root, which is the working
/// directory of integration tests: `spec_path` jobs name their spec by
/// it, so the golden carries no machine-specific path.
const FIXTURES: &str = "../../tests/fixtures/lint";

/// Every lint fixture stem with the properties it is checked against.
fn cases() -> Vec<(String, Vec<String>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURES);
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().and_then(|x| x.to_str()) == Some("wave"))
                .then(|| p.file_stem().unwrap().to_str().unwrap().to_string())
        })
        .collect();
    stems.sort();
    stems
        .into_iter()
        .map(|stem| {
            let props = match std::fs::read_to_string(dir.join(format!("{stem}.props"))) {
                Ok(text) => {
                    text.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect()
                }
                Err(_) => vec!["G true".to_string()],
            };
            (stem, props)
        })
        .collect()
}

/// Replace the value of every key ending `_ms` or `_pct`.
fn mask_json(j: Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    let v = if k.ends_with("_ms") || k.ends_with("_pct") {
                        Json::Str("<masked>".to_string())
                    } else {
                        mask_json(v)
                    };
                    (k, v)
                })
                .collect(),
        ),
        Json::Arr(xs) => Json::Arr(xs.into_iter().map(mask_json).collect()),
        other => other,
    }
}

/// Replace every word that is a `Duration` printed with `{:?}` (such as
/// `1.25ms` or `80µs,`), keeping trailing punctuation.
fn mask_text(s: &str) -> String {
    let word = |w: &str| {
        let bare = w.trim_end_matches([',', ':']);
        let number = ["ns", "µs", "ms", "s"].iter().find_map(|u| bare.strip_suffix(u));
        match number {
            Some(n)
                if n.starts_with(|c: char| c.is_ascii_digit())
                    && n.chars().all(|c| c.is_ascii_digit() || c == '.') =>
            {
                format!("<time>{}", &w[bare.len()..])
            }
            _ => w.to_string(),
        }
    };
    s.split('\n')
        .map(|line| line.split(' ').map(word).collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

fn mask_lines(s: &str) -> String {
    s.lines()
        .map(|l| match wave_svc::parse_json(l) {
            Ok(j) => format!("{}\n", mask_json(j)),
            Err(_) => format!("{}\n", mask_text(l)),
        })
        .collect()
}

/// One `wave check` run from inside the fixture dir (bare file names in
/// diagnostics), human or `--json`.
fn check(out: &mut String, stem: &str, property: &str, json: bool) {
    let mut cmd = Command::new(wave_bin());
    cmd.args(["check", &format!("{stem}.wave"), "--property", property]);
    if json {
        cmd.arg("--json");
    }
    let o = cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURES)).output();
    let o = o.expect("wave runs");
    let flag = if json { " --json" } else { "" };
    writeln!(out, "== wave check {stem}.wave --property {property}{flag}").unwrap();
    writeln!(out, "exit: {:?}", o.status.code()).unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    let stderr = String::from_utf8_lossy(&o.stderr);
    writeln!(out, "stdout:\n{}", if json { mask_lines(&stdout) } else { mask_text(&stdout) })
        .unwrap();
    writeln!(out, "stderr:\n{}", mask_text(&stderr)).unwrap();
}

/// Run `job` on `svc` twice (fresh, then from the cache) and render
/// every record.
fn serve(out: &mut String, svc: &VerifyService, job: Json) {
    writeln!(out, "== job {job}").unwrap();
    for pass in ["first", "second"] {
        for record in svc.run_request(&job, "job") {
            writeln!(out, "{pass}: {}", mask_json(record.to_json())).unwrap();
        }
    }
}

fn service() -> VerifyService {
    VerifyService::new(ServiceConfig { jobs: 1, ..ServiceConfig::default() }).expect("service")
}

fn render_all() -> String {
    let mut out = String::new();
    let mut cases = cases();
    cases.push(("w0101".to_string(), vec!["G (".to_string()]));
    for (stem, props) in &cases {
        for property in props {
            check(&mut out, stem, property, false);
            check(&mut out, stem, property, true);
            let path = format!("{FIXTURES}/{stem}.wave");
            let text = std::fs::read_to_string(&path).expect("read fixture");
            let property = Json::from(property.as_str());
            // a service per job kind, so each meets an empty cache
            let inline = Json::obj([("spec", Json::from(text)), ("property", property.clone())]);
            serve(&mut out, &service(), inline);
            let by_path = Json::obj([("spec_path", Json::from(path)), ("property", property)]);
            serve(&mut out, &service(), by_path);
        }
    }
    serve(&mut out, &service(), Json::obj([("suite", Json::from("E2"))]));
    out
}

#[test]
fn front_end_outputs_match_golden() {
    let actual = render_all();
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/front_end.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let dump = std::env::temp_dir().join("front_end.actual");
        std::fs::write(&dump, &actual).expect("write actual output");
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "front-end output drifted from golden at line {} (actual written to {})",
            first + 1,
            dump.display()
        );
    }
}

/// The three error shapes, spelled out: a spec that does not parse is
/// an error record without diagnostics; an invalid spec is an error
/// record with its E0002 findings; a property that does not parse is an
/// error record with the spec's findings plus an E0001 on the property.
#[test]
fn error_records_keep_their_shapes() {
    let read = |stem: &str| std::fs::read_to_string(format!("{FIXTURES}/{stem}.wave")).unwrap();
    let run = |spec: String, property: &str| {
        let job = Json::obj([("spec", Json::from(spec)), ("property", Json::from(property))]);
        service().run_request(&job, "job").remove(0)
    };
    let codes =
        |r: &wave_svc::JobRecord| r.diagnostics.iter().map(|d| d.code.clone()).collect::<Vec<_>>();

    let unparsable = run(read("e0001"), "G true");
    assert_eq!(unparsable.verdict, "error");
    assert!(unparsable.error.as_deref().unwrap().starts_with("inline spec: parse error"));
    assert!(unparsable.diagnostics.is_empty(), "{unparsable:?}");

    let invalid = run(read("e0002"), "G true");
    assert!(invalid.error.as_deref().unwrap().starts_with("specification is invalid:"));
    assert!(!invalid.diagnostics.is_empty());
    assert!(codes(&invalid).iter().all(|c| c == "E0002"), "{invalid:?}");

    let bad_property = run(read("w0101"), "G (");
    assert!(bad_property.error.as_deref().unwrap().starts_with("property: parse error"));
    let found = codes(&bad_property);
    assert!(found.contains(&"W0101".to_string()), "{bad_property:?}");
    let e0001 = bad_property.diagnostics.iter().find(|d| d.code == "E0001").expect("E0001");
    assert_eq!(e0001.file, "property");
}

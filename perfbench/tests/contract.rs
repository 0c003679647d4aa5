//! The benchmark's contract with `BENCHMARK.json` and its inputs.

use spmm_perfbench::inputs::{matrix, Case, Class, Operands, Shape};
use spmm_perfbench::report::{per_layer, END_TO_END};
use spmm_perfbench::workloads::WORKLOADS;
use spmm_serve::MatrixFingerprint;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The text of the JSON array under `key`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let mut depth = 0;
    for (i, ch) in json[open..].char_indices() {
        match ch {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &json[open..open + i + 1];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated array under {key}");
}

/// Every string value of `field` in `text`, in order.
fn values(text: &str, field: &str) -> Vec<String> {
    let pat = format!("\"{field}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let json = benchmark_json();
    let e2e = section(&json, "end_to_end");
    let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(values(e2e, "name"), want);
    let units: Vec<String> = END_TO_END.iter().map(|(_, u)| u.to_string()).collect();
    assert_eq!(values(e2e, "unit"), units);

    let layers = section(&json, "per_layer");
    let (names, units): (Vec<String>, Vec<String>) = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .unzip();
    assert_eq!(values(layers, "name"), names);
    assert_eq!(values(layers, "unit"), units);

    assert_eq!(values(section(&json, "workloads"), "name"), WORKLOADS);
}

const SHAPE: Shape = Shape {
    rows: 256,
    cols: 512,
    row_nnz: 6,
};

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for class in [Class::Shuffled, Class::PowerLaw, Class::Cf] {
        let a = matrix(class, SHAPE, 7);
        let b = matrix(class, SHAPE, 7);
        let c = matrix(class, SHAPE, 8);
        assert_eq!(
            MatrixFingerprint::of(&a),
            MatrixFingerprint::of(&b),
            "{class:?}"
        );
        assert_eq!(a.values(), b.values(), "{class:?}");
        assert_ne!(
            MatrixFingerprint::of(&a),
            MatrixFingerprint::of(&c),
            "{class:?}"
        );
    }
    let (x, y) = (Operands::new(64, 96, 3), Operands::new(64, 96, 3));
    assert_eq!(x.x.data(), y.x.data());
    assert_eq!(x.y.data(), y.y.data());
    assert_eq!(x.v, y.v);
    assert_ne!(Operands::new(64, 96, 4).x.data(), x.x.data());
}

#[test]
fn inputs_are_quantized_so_references_are_exact() {
    let case = Case::generate(Class::PowerLaw, SHAPE, 11).expect("references compute");
    assert!(case
        .m
        .values()
        .iter()
        .all(|v| [-3.0, -1.0, 1.0, 3.0].contains(v)));
    assert!(case
        .ops
        .x
        .data()
        .iter()
        .all(|v| v.fract() == 0.0 && v.abs() <= 2.0));
    assert!(case.spmm_ref.data().iter().all(|v| v.fract() == 0.0));
    // SDDMM operands: x is ncols × K, y is nrows × K
    assert_eq!(case.ops.x.nrows(), case.m.ncols());
    assert_eq!(case.ops.y.nrows(), case.m.nrows());
}

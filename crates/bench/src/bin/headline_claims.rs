//! Prints the paper's §V in-text claims as checked by
//! [`ppc_bench::headline_claims`], one PASS/FAIL line each. Exits
//! non-zero if a claim's direction fails; the tier-1 test
//! `crates/bench/tests/headline_claims.rs` asserts the same checks.

fn main() {
    let claims = ppc_bench::headline_claims();
    println!("\nHeadline claims (paper §V):\n");
    for c in &claims {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        println!("[{verdict}] {}: {}", c.name, c.detail);
    }
    let all = claims.iter().all(|c| c.pass);
    println!(
        "\noverall: {}",
        if all {
            "ALL CLAIMS REPRODUCED"
        } else {
            "SOME CLAIMS FAILED"
        }
    );
    if !all {
        std::process::exit(1);
    }
}

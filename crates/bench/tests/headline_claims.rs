//! The paper's §V in-text claims hold on this build (the thresholds are
//! those of `ppc_bench::headline_claims`).

#[test]
fn every_headline_claim_is_reproduced() {
    let claims = ppc_bench::headline_claims();
    assert_eq!(claims.len(), 6);
    for c in &claims {
        assert!(c.pass, "{}: {}", c.name, c.detail);
    }
}

//! Rule and crate-class definitions.
//!
//! Which rules apply where is a function of the *crate class*: the
//! simulation crates must be bit-deterministic end to end, the telemetry
//! and bench crates legitimately read wall clocks (management-cost
//! measurement, benchmark timing), and the lint tool itself only has to
//! be panic- and print-clean. Unknown crates default to the strictest
//! class so a future crate is covered before anyone thinks about it.

use std::fmt;

/// How a crate is treated by the scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Part of the deterministic simulation stack: every rule applies.
    Deterministic,
    /// In the sim loop but allowlisted for wall-clock timing
    /// (management-cost measurement).
    Timing,
    /// Experiment drivers and benchmarks: prints results, times runs, and
    /// may panic on malformed CLI input; only determinism rules apply.
    Bench,
    /// Observability: the span recorder, metrics registry, exporters and
    /// the fleet health plane (`rollup`, `sketch`, `slo`, `hub`) feed
    /// determinism fingerprints, so every rule applies —
    /// except that the dedicated self-profiling module
    /// (`crates/obs/src/profile.rs`) may read wall clocks and thread
    /// identity; that one-file carve-out lives in the scanner.
    Obs,
    /// Host-side tooling (this linter): panic/print hygiene only.
    Tool,
}

impl CrateClass {
    /// Classifies a crate by its directory name under `crates/` (the root
    /// `ppc` facade classifies as deterministic).
    pub fn of(crate_name: &str) -> CrateClass {
        match crate_name {
            "telemetry" => CrateClass::Timing,
            "bench" => CrateClass::Bench,
            "obs" => CrateClass::Obs,
            "lint" => CrateClass::Tool,
            // core, cluster, simkit, faults, node, workload, metrics,
            // whatif, ppc — and any crate added later — get the strict
            // treatment. `whatif` in particular must stay deterministic:
            // its branched projections feed CI's branch-and-replay gate,
            // and latency timing belongs to `bench` (whatif_serve). The
            // hierarchical control plane (`core`'s topology, budget
            // delegation and hierarchy modules; `cluster`'s sharded
            // evaluation) is likewise strict: budget splits and rollups
            // feed every determinism fingerprint.
            _ => CrateClass::Deterministic,
        }
    }
}

/// One lint rule. See DESIGN.md §11 for the full rationale table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in deterministic crates: iteration order varies
    /// run to run (and with `RandomState`, process to process), which
    /// silently breaks bit-identical replay. Use `BTreeMap`/`BTreeSet` or
    /// dense `Vec` indexing. Applies to test code too — a test that
    /// iterates an unordered map can flake.
    UnorderedCollections,
    /// `Instant::now`/`SystemTime`/`UNIX_EPOCH` in deterministic crates:
    /// simulation time is `SimTime`; wall-clock reads make results depend
    /// on host load. `telemetry` (management-cost measurement) and `bench`
    /// (run timing) are allowlisted via their crate class.
    WallClock,
    /// `thread_rng`/`from_entropy`/`rand::random`: all randomness must
    /// flow from the experiment seed through `RngFactory` so runs replay.
    AdHocRng,
    /// `thread::current`/`ThreadId`/`available_parallelism`/`env::var`/
    /// `env::vars`/`env::args`/`var_os` in deterministic and `Obs`
    /// library code: thread identity, machine width and the environment
    /// differ from host to host, so a value read from them must never
    /// reach a fingerprint. Binaries (which parse their own arguments)
    /// and test code are exempt, and so are the thread reads of the obs
    /// self-profiler. Fires on the read itself, whether or not the value
    /// flows anywhere; an `allow` states why it cannot vary a replay.
    HostRead,
    /// `.unwrap()`/`.expect(...)`/`panic!`/`todo!`/`unimplemented!`/
    /// `unreachable!` in library code: a panic in the control loop takes
    /// down the manager
    /// mid-experiment. Return typed errors, or document the invariant with
    /// an `allow` justification. Test code is exempt.
    PanicPath,
    /// `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in library code:
    /// output must route through the journal/telemetry so experiments stay
    /// machine-readable. Binary targets (`main.rs`, `src/bin/*`) are
    /// exempt.
    Stdout,
    /// `==`/`!=` against a float literal in the power-model and budget
    /// crates (`core`, `node`): exact float equality on computed watts is
    /// almost always a tolerance bug. Compare with an epsilon or on
    /// `to_bits()` when bit-identity is the point. Test code is exempt
    /// (bit-exactness assertions are deliberate there).
    FloatEq,
    /// An `// ppc-lint: allow(rule)` directive with no justification after
    /// the closing parenthesis, or naming an unknown rule. Suppressions
    /// must say why.
    BareAllow,
    /// Workspace pass: a justified `allow(...)` that no longer suppresses
    /// anything. The finding it silenced is gone, so the directive — and
    /// the invariant it claims — is stale. Delete it, or fix the code it
    /// was meant to cover.
    UnusedSuppression,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::UnorderedCollections,
        Rule::WallClock,
        Rule::AdHocRng,
        Rule::HostRead,
        Rule::PanicPath,
        Rule::Stdout,
        Rule::FloatEq,
        Rule::BareAllow,
        Rule::UnusedSuppression,
    ];

    /// Stable kebab-case id used in diagnostics and `allow(...)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedCollections => "unordered-collections",
            Rule::WallClock => "wall-clock",
            Rule::AdHocRng => "ad-hoc-rng",
            Rule::HostRead => "host-read",
            Rule::PanicPath => "panic-path",
            Rule::Stdout => "stdout",
            Rule::FloatEq => "float-eq",
            Rule::BareAllow => "bare-allow",
            Rule::UnusedSuppression => "unused-suppression",
        }
    }

    /// Parses an id as written inside `allow(...)`.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description for `--list-rules` and reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnorderedCollections => {
                "HashMap/HashSet in deterministic crates (iteration order is unstable)"
            }
            Rule::WallClock => "Instant::now/SystemTime in deterministic crates (use SimTime)",
            Rule::AdHocRng => "thread_rng/from_entropy/rand::random (all RNG must be seeded)",
            Rule::HostRead => "thread identity/env read in library code (varies by host)",
            Rule::PanicPath => "unwrap/expect/panic! in library code (return typed errors)",
            Rule::Stdout => "println!/dbg! in library code (route through the journal)",
            Rule::FloatEq => "float-literal ==/!= in power/budget arithmetic (use a tolerance)",
            Rule::BareAllow => "ppc-lint allow directive without a justification",
            Rule::UnusedSuppression => {
                "allow directive whose rule no longer fires (stale suppression)"
            }
        }
    }

    /// Whether the rule applies to code inside `#[cfg(test)]`/`#[test]`
    /// regions. Determinism rules do (flaky tests are still flaky);
    /// panic/print/float hygiene does not (tests assert and panic on
    /// purpose), and neither does `host-read` (a test may look at thread
    /// identity to check the fan-out itself).
    pub fn applies_in_tests(self) -> bool {
        matches!(
            self,
            Rule::UnorderedCollections
                | Rule::WallClock
                | Rule::AdHocRng
                | Rule::BareAllow
                | Rule::UnusedSuppression
        )
    }

    /// Whether the rule applies to a crate of the given class.
    pub fn applies_to(self, class: CrateClass) -> bool {
        match self {
            Rule::UnorderedCollections | Rule::AdHocRng => class != CrateClass::Tool,
            // `Obs` output joins the fingerprints, so it is held to the
            // deterministic standard; its profile.rs and the binaries'
            // carve-outs are file-scoped in scan.rs, not class-wide.
            Rule::WallClock | Rule::HostRead => {
                matches!(class, CrateClass::Deterministic | CrateClass::Obs)
            }
            Rule::PanicPath => !matches!(class, CrateClass::Bench),
            Rule::Stdout => !matches!(class, CrateClass::Bench),
            // Scoped further to the power-model/budget crates in scan.rs.
            Rule::FloatEq => class == CrateClass::Deterministic,
            Rule::BareAllow => true,
            Rule::UnusedSuppression => true,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

//! EXPERIMENTS.md's "Reproduction summary", checked against the committed
//! `results/*.tsv`.
//!
//! Each summary row whose finding is an ordering or a range is one test
//! here. A ✓ row asserts the finding; a ✗ or "partly" row asserts the
//! stated non-reproduction, so a regeneration that starts reproducing it
//! fails too and the summary must be rewritten. Every failure message
//! names the table and the summary row, then the offending cells.

/// One committed `results/<id>.tsv` table.
struct Tsv {
    id: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Tsv {
    fn load(id: &'static str) -> Tsv {
        let path = format!("{}/results/{id}.tsv", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut lines = text
            .lines()
            .map(|l| l.split('\t').map(String::from).collect());
        let header = lines.next().expect("tsv has a header");
        let rows = lines.collect();
        Tsv { id, header, rows }
    }

    /// The leading number of column `col` in the one row whose first cells,
    /// joined by spaces, read `key` (`"CR_P gpt-4"`, `"FULL vicuna-33b 1"`).
    fn num(&self, key: &str, col: &str) -> f64 {
        let c = self.header.iter().position(|h| h == col);
        let c = c.unwrap_or_else(|| panic!("{}: no column {col:?}", self.id));
        let hits: Vec<&Vec<String>> = (self.rows.iter())
            .filter(|r| (1..=r.len()).any(|n| r[..n].join(" ") == key))
            .collect();
        assert_eq!(hits.len(), 1, "{}: {key:?} must name one row", self.id);
        let cell = hits[0][c].split_whitespace().next().unwrap_or_default();
        let bad = || panic!("{}: {key:?} {col} = {cell:?}", self.id);
        cell.parse().unwrap_or_else(|_| bad())
    }

    fn ex(&self, key: &str) -> f64 {
        self.num(key, "EX%")
    }
}

/// Tables print one decimal; range ends are compared with this slack.
fn within(x: f64, lo: f64, hi: f64) -> bool {
    x >= lo - 1e-6 && x <= hi + 1e-6
}

fn max(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::MIN, f64::max)
}

const MODELS: [&str; 4] = ["gpt-4", "gpt-3.5-turbo", "text-davinci-003", "vicuna-33b"];
const REPRS: [&str; 5] = ["BS_P", "TR_P", "OD_P", "CR_P", "AS_P"];

#[test]
fn e1_instructed_representations_beat_bs_p() {
    const ROW: &str = "E1, row \"representation ordering (instructed ≫ BS_P)\"";
    let e1 = Tsv::load("E1");
    for m in MODELS {
        let ex = |r: &str| e1.ex(&format!("{r} {m}"));
        for r in &REPRS[1..] {
            assert!(ex(r) > ex("BS_P"), "{ROW}: {r} {m}");
        }
        // BS_P trails the best representation by 7–10 EX.
        let lead = max(REPRS.map(ex)) - ex("BS_P");
        assert!(within(lead, 7.0, 10.0), "{ROW}: {m} {lead:.1}");
    }
}

#[test]
fn e1_cr_p_is_not_the_top_representation() {
    const ROW: &str = "E1, row \"CR_P the top representation\" (✗)";
    let e1 = Tsv::load("E1");
    let ex = |r: &str, m: &str| e1.ex(&format!("{r} {m}"));
    // OD_P tops gpt-3.5 and davinci, by at most one EX point.
    for m in ["gpt-3.5-turbo", "text-davinci-003"] {
        let lead = ex("OD_P", m) - ex("CR_P", m);
        assert!(lead > 0.0 && lead <= 1.0 + 1e-6, "{ROW}: {m}");
    }
    let cr = ex("CR_P", "vicuna-33b");
    let at_top = REPRS.iter().filter(|r| ex(r, "vicuna-33b") >= cr);
    assert_eq!(at_top.count(), 1, "{ROW}: vicuna-33b");
    let top = max(REPRS.map(|r| ex(r, "gpt-4")));
    let tie = [ex("CR_P", "gpt-4"), ex("TR_P", "gpt-4")] == [top; 2];
    assert!(tie, "{ROW}: gpt-4: CR_P and TR_P do not tie at the top");
}

#[test]
fn e1_best_representation_depends_on_the_model() {
    const ROW: &str = "E1, row \"representation × model interaction\"";
    let e1 = Tsv::load("E1");
    let tops = MODELS.map(|m| {
        let ex = |r: &str| e1.ex(&format!("{r} {m}"));
        let top = max(REPRS.map(ex));
        REPRS.map(|r| ex(r) == top)
    });
    assert!(tops.iter().any(|t| *t != tops[0]), "{ROW}");
}

#[test]
fn e2_realistic_drop_and_cr_p_stays_ahead() {
    const ROW: &str = "E1/E2, row \"Spider-Realistic drop, CR_P stays ahead\"";
    let (e1, e2) = (Tsv::load("E1"), Tsv::load("E2"));
    for m in MODELS {
        let cr = e2.ex(&format!("CR_P {m}"));
        let drop = e1.ex(&format!("CR_P {m}")) - cr;
        assert!(within(drop, 13.0, 19.0), "{ROW}: {m} {drop:.1}");
        for r in REPRS.iter().filter(|&&r| r != "CR_P") {
            assert!(e2.ex(&format!("{r} {m}")) < cr, "{ROW}: {r} {m}");
        }
    }
}

#[test]
fn e3_foreign_keys_help_everywhere() {
    const ROW: &str = "E3, row \"FK info helps (+1.7–4.7 everywhere)\"";
    let e3 = Tsv::load("E3");
    for (r, m) in REPRS.iter().flat_map(|r| MODELS.map(|m| (r, m))) {
        let d = e3.num(&format!("{r} {m}"), "Δ");
        assert!(within(d, 1.7, 4.7), "{ROW}: {r} {m} {d}");
    }
}

#[test]
fn e4_rule_implication_rescues_od_p_only() {
    const ROW: &str = "E4, row \"rule implication rescues OD_P, matters less elsewhere\"";
    let e4 = Tsv::load("E4");
    for (r, m) in REPRS.iter().flat_map(|r| MODELS.map(|m| (r, m))) {
        let d = e4.num(&format!("{r} {m}"), "Δ");
        let (lo, hi) = if *r == "OD_P" { (6.7, 9.0) } else { (0.0, 1.0) };
        assert!(within(d, lo, hi), "{ROW}: {r} {m} {d}");
    }
}

#[test]
fn e5_similarity_selection_beats_random_and_mqs_beats_qts() {
    const ROW: &str = "E5, row \"Random ≪ similarity selection; MQS > QTS\"";
    let e5 = Tsv::load("E5");
    let similar = ["QTS", "MQS", "QRS", "DAIL_S"];
    for m in MODELS {
        let ex = |s: &str| e5.ex(&format!("{s} {m}"));
        let sim = |s: &str| e5.num(&format!("{s} {m}"), "skeleton-sim");
        for s in similar {
            let beats = ex(s) > ex("Random") && sim(s) > sim("Random");
            assert!(beats, "{ROW}: {s} {m}");
        }
        // Random trails the best similarity strategy by 12.7–22.7 EX.
        let lead = max(similar.map(ex)) - ex("Random");
        assert!(within(lead, 12.7, 22.7), "{ROW}: {m} {lead:.1}");
        assert!(ex("MQS") > ex("QTS"), "{ROW}: MQS {m}");
    }
}

#[test]
fn e5_mqs_beats_dail_selection() {
    const ROW: &str = "E5, row \"DAIL selection the best strategy\" (✗)";
    let e5 = Tsv::load("E5");
    for m in MODELS {
        let gap = e5.ex(&format!("MQS {m}")) - e5.ex(&format!("DAIL_S {m}"));
        assert!(within(gap, 0.7, 1.0), "{ROW}: {m} {gap:.1}");
    }
}

#[test]
fn e6_dail_organization_matches_full_with_fewer_tokens() {
    const ROW: &str = "E6, row \"organization: DAIL pairs ≈ FULL at a fraction of tokens; \
                       SQL-only weakest at low shots\"";
    let e6 = Tsv::load("E6");
    for m in ["gpt-4", "gpt-3.5-turbo", "vicuna-33b"] {
        for n in ["1", "3", "5"] {
            let get = |o: &str, col: &str| e6.num(&format!("{o} {m} {n}"), col);
            let tokens = |o: &str| get(o, "avg prompt tokens");
            let same_ex = get("DAIL_O", "EX%") == get("FULL", "EX%");
            assert!(same_ex, "{ROW}: EX {m} {n}");
            assert!(tokens("DAIL_O") < tokens("FULL"), "{ROW}: tokens {m} {n}");
        }
        // SQL-only trails both at one shot, by 4.7–19.3 EX.
        let ex = |o: &str| e6.ex(&format!("{o} {m} 1"));
        let gap = ex("FULL").min(ex("DAIL_O")) - ex("SQLONLY");
        assert!(within(gap, 4.7, 19.3), "{ROW}: {m} {gap:.1}");
    }
}

#[test]
fn e7_token_efficiency_frontier() {
    const ROW: &str = "E7, row \"token-efficiency frontier\"";
    let e7 = Tsv::load("E7");
    for n in ["1", "3", "5"] {
        let eff = |s: &str| e7.num(&format!("{s} {n}"), "EX per 1k tokens");
        let ex = |s: &str| e7.ex(&format!("{s} {n}"));
        // SQLONLY (cheap) → DAIL_O (balanced) → FULL (expensive, no gain).
        let frontier = eff("SQLONLY") > eff("DAIL_O") && eff("DAIL_O") > eff("FULL");
        assert!(frontier, "{ROW}: {n}-shot");
        assert!(ex("FULL") <= ex("DAIL_O"), "{ROW}: {n}-shot EX");
    }
}

#[test]
fn e8_leaderboard_ordering() {
    const ROW: &str = "E8, row \"leaderboard: DAIL+SC > DAIL > DIN > C3; DAIL ≫ zero-shot\"";
    let e8 = Tsv::load("E8");
    let ex = |s: &str| e8.num(s, "EX% [95% CI]");
    let order = [
        "DAIL-SQL(gpt-4) + SC",
        "DAIL-SQL(gpt-4)",
        "DIN-SQL-style(gpt-4)",
        "C3-style(gpt-3.5-turbo)",
    ];
    for w in order.windows(2) {
        assert!(ex(w[0]) > ex(w[1]), "{ROW}: {}", w[1]);
    }
    // "≫" read as at least five EX points (measured: +9.3).
    let lift = ex("DAIL-SQL(gpt-4)") - ex("ZeroShot[CR_P](gpt-4)");
    assert!(lift >= 5.0, "{ROW}: {lift:.1}");
}

#[test]
fn e8_hardness_gradient_is_not_monotone() {
    const ROW: &str = "E8, row \"per-hardness EX gradient\" (partly: extra-hard lowest, \
                       hard highest)";
    let e8 = Tsv::load("E8");
    for s in e8.rows.iter().map(|r| r[0].as_str()) {
        let ex = |h: &str| e8.num(s, h);
        for h in ["easy", "medium"] {
            let shape = ex("extra") < ex(h) && ex(h) < ex("hard");
            assert!(shape, "{ROW}: {s} {h}");
        }
    }
}

#[test]
fn a1_shot_sweep_is_an_inverted_u_except_gpt_4() {
    const ROW: &str = "A1, row \"shots sweet-spot (inverted-U)\" (3 of 4; gpt-4 flat)";
    let a1 = Tsv::load("A1");
    for m in MODELS {
        let ex = |n: &str| a1.ex(&format!("{m} {n}"));
        // EX at 8 shots sits 1.3–2.0 below the peak; gpt-4 stays flat.
        let dip = max(["0", "1", "2", "3", "5", "8"].map(ex)) - ex("8");
        let (lo, hi) = if m == "gpt-4" { (0.0, 0.0) } else { (1.3, 2.0) };
        assert!(within(dip, lo, hi), "{ROW}: {m} {dip:.1}");
    }
}

#[test]
fn e9_open_source_scale_alignment_icl_and_validity() {
    const ROW: &str = "E9, row \"open-source scale & alignment effects; ICL lift; \
                       valid-but-wrong\"";
    let (e9, e1) = (Tsv::load("E9"), Tsv::load("E1"));
    let ex = |m: &str, n: &str| e9.ex(&format!("{m} CR_P {n}"));
    let llama = ["llama-7b", "llama-13b", "llama-33b"].map(|m| ex(m, "0"));
    assert!(llama[0] < llama[1] && llama[1] < llama[2], "{ROW}: scale");
    assert!(ex("vicuna-33b", "0") > llama[2], "{ROW}: alignment");
    let gpt35 = e1.ex("CR_P gpt-3.5-turbo");
    for m in e9
        .rows
        .iter()
        .filter(|r| r[2] == "5")
        .map(|r| r[0].as_str())
    {
        assert!(ex(m, "5") > ex(m, "0"), "{ROW}: ICL lift {m}");
        assert!(ex(m, "0") < gpt35, "{ROW}: {m} reaches gpt-3.5");
    }
    // Validity 97–100% while zero-shot EX is 21–42%.
    assert_eq!(e9.header[2..], ["shots", "valid%", "EX%"], "{ROW}");
    for r in &e9.rows {
        let valid: f64 = r[3].parse().expect("valid% is a number");
        let ex: f64 = r[4].parse().expect("EX% is a number");
        let wrong = r[2] != "0" || within(ex, 20.5, 42.5);
        assert!(within(valid, 97.0, 100.0) && wrong, "{ROW}: {r:?}");
    }
}

#[test]
fn e10_sft_gains_lock_in_and_icl_collapse() {
    const ROW: &str = "E10, row \"SFT: big 0-shot gains, representation lock-in, \
                       ICL collapse\"";
    let e10a = Tsv::load("E10a");
    for (m, r) in ["llama-7b", "llama-13b"]
        .map(|m| REPRS.map(|r| (m, r)))
        .concat()
    {
        let d = e10a.num(&format!("{m} {r}"), "Δ");
        assert!(within(d, 18.0, 27.3), "{ROW}: E10a {m} {r} {d}");
    }
    // The base model's 5-shot lift (+29.7) is gone after SFT (+0.0).
    let e10b = Tsv::load("E10b");
    let gain = |v: &str| e10b.num(&format!("llama-13b {v}"), "few-shot gain");
    assert!(
        gain("base") >= 10.0 && gain("SFT(CR_P)") <= 1.0,
        "{ROW}: E10b"
    );
    let e10c = Tsv::load("E10c");
    let served = |r: &str| e10c.ex(&format!("llama-13b CR_P {r}"));
    for r in ["TR_P", "AS_P"] {
        assert!(served(r) < served("CR_P"), "{ROW}: E10c {r}");
    }
}

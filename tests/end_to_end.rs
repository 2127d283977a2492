//! Cross-crate integration: every Livermore kernel through the full
//! pipeline on both machine models, with independent validation at each
//! stage.

use tpn::sched::steady::steady_state_net;
use tpn::sched::validate::{check_schedule, replay_semantics};
use tpn::CompiledLoop;
use tpn_livermore::kernels;
use tpn_petri::marked::check_live;
use tpn_petri::ratio::critical_ratio;
use tpn_petri::Ratio;

const ITERS: u64 = 120;

#[test]
fn every_kernel_schedules_time_optimally() {
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let report = lp.rate_report().expect(kernel.name);
        assert!(
            report.is_time_optimal(),
            "{}: measured {} != optimal {}",
            kernel.name,
            report.measured,
            report.optimal
        );
    }
}

#[test]
fn every_kernel_schedule_is_dependence_clean() {
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let schedule = lp.schedule().expect(kernel.name);
        check_schedule(lp.sdsp(), &schedule, ITERS, None, 0)
            .unwrap_or_else(|v| panic!("{}: {v}", kernel.name));
    }
}

#[test]
fn every_kernel_schedule_preserves_semantics() {
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let schedule = lp.schedule().expect(kernel.name);
        let env = kernel.env(ITERS as usize);
        let outcome = replay_semantics(lp.sdsp(), &schedule, &env, ITERS).expect(kernel.name);
        assert!(
            outcome.semantics_preserved(),
            "{}: {} of {} values diverged",
            kernel.name,
            outcome.mismatches,
            outcome.values_checked
        );
    }
}

#[test]
fn every_kernel_scp_schedule_respects_machine_limits() {
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let run = lp.scp(8).expect(kernel.name);
        assert!(run.rates.respects_resource_bound(), "{}", kernel.name);
        // Width-1 issue, and operands wait the full pipeline transit.
        check_schedule(lp.sdsp(), &run.schedule, ITERS, Some(1), 7)
            .unwrap_or_else(|v| panic!("{} (SCP): {v}", kernel.name));
        // SCP schedules also preserve semantics.
        let env = kernel.env(ITERS as usize);
        let outcome = replay_semantics(lp.sdsp(), &run.schedule, &env, ITERS).expect(kernel.name);
        assert!(outcome.semantics_preserved(), "{} (SCP)", kernel.name);
    }
}

#[test]
fn every_kernel_steady_net_reproduces_the_period() {
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let frustum = lp.frustum().expect(kernel.name);
        let pn = lp.petri_net();
        let steady = steady_state_net(&pn.net, &frustum);
        assert!(steady.net.is_marked_graph(), "{}", kernel.name);
        assert!(
            check_live(&steady.net, &steady.marking).is_ok(),
            "{}",
            kernel.name
        );
        let r = critical_ratio(&steady.net, &steady.marking).expect(kernel.name);
        assert_eq!(
            r.cycle_time,
            Ratio::from_integer(frustum.period()),
            "{}: steady net period mismatch",
            kernel.name
        );
    }
}

#[test]
fn storage_minimisation_is_rate_and_semantics_neutral() {
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let before = lp.analyze().expect(kernel.name).optimal_rate;
        let run = lp.storage().expect(kernel.name);
        assert!(run.report.after <= run.report.before, "{}", kernel.name);
        let optimised = &run.optimised;
        let schedule = optimised.schedule().expect(kernel.name);
        assert_eq!(schedule.rate(), before, "{}: rate changed", kernel.name);
        let env = kernel.env(ITERS as usize);
        let outcome =
            replay_semantics(optimised.sdsp(), &schedule, &env, ITERS).expect(kernel.name);
        assert!(outcome.semantics_preserved(), "{} (optimised)", kernel.name);
    }
}

#[test]
fn scp_depth_one_matches_unit_pipeline_semantics() {
    // At depth 1 the SCP model is the SDSP-PN plus only the run place: the
    // rate can never exceed the unconstrained rate nor 1/n.
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let unconstrained = lp.rate_report().expect(kernel.name).measured;
        let run = lp.scp(1).expect(kernel.name);
        assert!(
            run.rates.measured <= unconstrained,
            "{}: SCP faster than unconstrained",
            kernel.name
        );
        assert!(run.rates.respects_resource_bound(), "{}", kernel.name);
    }
}

#[test]
fn deadlock_prone_mixed_feedback_is_buffered_by_the_frontend() {
    // E is read both same-iteration (Y) and loop-carried (V): the builder
    // must insert the feedback buffer, keeping the net live.
    let lp = CompiledLoop::from_source(
        "do i from 1 to n { E[i] := S[i]; Y[i] := E[i] * 2; V[i] := E[i-1] + Y[i]; }",
    )
    .expect("compiles");
    assert_eq!(lp.size(), 4); // E, Y, V + E~fb
    let schedule = lp.schedule().expect("live, so schedulable");
    check_schedule(lp.sdsp(), &schedule, 50, None, 0).expect("clean");
    let mut env = tpn::dataflow::interp::Env::new();
    env.insert("S", (0..60).map(|i| i as f64).collect());
    let outcome = replay_semantics(lp.sdsp(), &schedule, &env, 50).expect("runs");
    assert!(outcome.semantics_preserved());
}

#[test]
fn every_kernel_scp_engine_stats_are_pinned() {
    // The FIFO detection run at depth 8 of each kernel, as the engine
    // counts it: [instants, firings, completions, startable_scanned,
    // startable_pruned]. A change to how the engine lists, gates or prunes
    // its candidates shows here even when every schedule stays the same.
    let pinned = [
        ("loop1", [37, 24, 22, 31, 7]),
        ("loop7", [117, 226, 212, 261, 35]),
        ("loop12", [2, 2, 1, 2, 0]),
        ("loop3", [17, 6, 5, 6, 0]),
        ("loop5", [17, 7, 6, 7, 0]),
        ("loop9", [103, 88, 84, 127, 39]),
        ("loop9-doall", [112, 222, 208, 302, 80]),
    ];
    let all = kernels();
    assert_eq!(all.len(), pinned.len());
    for (kernel, (name, want)) in all.iter().zip(pinned) {
        assert_eq!(kernel.name, name);
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let s = lp.scp(8).expect(kernel.name).frustum.stats.engine;
        let got = [
            s.instants,
            s.firings,
            s.completions,
            s.startable_scanned,
            s.startable_pruned,
        ];
        assert_eq!(got, want, "{}", kernel.name);
    }
}

/// Folds every recorded instant of `f` into one word: its time, its
/// completions, its starts in start order, its digest and its policy
/// fingerprint, then the window counts. Lists carry their lengths, so
/// moving an event between instants or lists changes the word.
fn step_stream_hash(f: &tpn_sched::FrustumReport) -> u64 {
    use tpn_petri::timed::mix64;
    let mut h = 0u64;
    let mut fold = |word: u64| h = mix64(h ^ word);
    for step in f.steps() {
        fold(step.time);
        for list in [step.completed, step.started] {
            fold(list.len() as u64);
            list.iter().for_each(|t| fold(t.index() as u64));
        }
        fold(step.digest);
        fold(step.policy_fingerprint);
    }
    f.counts.iter().for_each(|&c| fold(c));
    h
}

#[test]
fn scp_step_streams_are_pinned() {
    // Every instant of the FIFO and priority SCP runs, as
    // `step_stream_hash` folds it: `(loop, depth, fifo, priority)`. A change
    // to the engine or the policies that moves one start, one completion
    // or one digest shows here even when the frustum and its counts agree.
    use tpn_dataflow::to_petri::to_petri;
    use tpn_sched::detect_frustum;
    use tpn_sched::policy::{FifoPolicy, PriorityPolicy};
    use tpn_sched::scp::build_scp;
    let pinned: [(&str, u64, u64, u64); 9] = [
        ("chain/64", 1, 0x6B4E_D2E0_79E4_AA83, 0x3957_556A_892C_4184),
        ("chain/64", 4, 0xED3B_6E29_0842_4D38, 0x2082_45D9_EFFF_23C8),
        ("chain/64", 8, 0x5AC6_CEF2_0DDD_FAFD, 0x3575_932A_8960_D286),
        ("chain/160", 1, 0xB5CA_BB9D_3324_12C5, 0x8116_60AA_7177_7095),
        ("chain/160", 4, 0x441E_2DD2_4613_00FE, 0xA3B4_8916_DB0C_F9F6),
        ("chain/160", 8, 0x1058_3DE3_B1CA_AFC4, 0xB688_E080_FC68_7E21),
        ("loop1", 8, 0xF977_826D_2EC8_D97C, 0xF51B_D3AD_E1B8_AE51),
        ("loop7", 8, 0xFF4C_DCCB_CFB6_2018, 0x8CD7_380C_4B10_86AD),
        (
            "loop9-doall",
            8,
            0x4575_E128_1B78_AC93,
            0x6206_65DE_0F4E_837F,
        ),
    ];
    for (name, depth, fifo, priority) in pinned {
        let sdsp = named_loop(name);
        let scp = build_scp(&to_petri(&sdsp), depth);
        let budget = 100_000 * depth;
        let runs = [
            detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), budget),
            detect_frustum(
                &scp.net,
                scp.marking.clone(),
                PriorityPolicy::new(&scp),
                budget,
            ),
        ];
        let got = runs.map(|run| step_stream_hash(&run.expect(name)));
        assert_eq!(got, [fifo, priority], "{name}@{depth}");
    }
}

/// The loop a pin row names: `chain/N`, `ring/N` or a Livermore kernel.
fn named_loop(name: &str) -> tpn_dataflow::Sdsp {
    use tpn_livermore::synth::{chain, recurrence_ring};
    if let Some(n) = name.strip_prefix("chain/") {
        return chain(n.parse().unwrap());
    }
    if let Some(n) = name.strip_prefix("ring/") {
        return recurrence_ring(n.parse().unwrap());
    }
    let kernel = kernels().into_iter().find(|k| k.name == name).unwrap();
    tpn_lang::compile(kernel.source).expect(name)
}

/// Folds what a schedule answers into one word: its rendered kernel,
/// period and iterations per period, every kernel entry's
/// `(slot, node, offset)`, and per node the recorded start count and
/// every start time through two kernel instances past the recording.
fn schedule_hash(s: &tpn_sched::LoopSchedule) -> u64 {
    use tpn_petri::timed::mix64;
    let mut h = 0u64;
    let mut fold = |word: u64| h = mix64(h ^ word);
    let text = s.render_kernel();
    fold(text.len() as u64);
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fold(u64::from_le_bytes(word));
    }
    fold(s.period());
    fold(s.iterations_per_period());
    fold(s.kernel().len() as u64);
    for e in s.kernel() {
        fold(e.slot);
        fold(e.node.index() as u64);
        fold(e.offset as u64);
    }
    let k = s.iterations_per_period();
    for node in (0..s.num_nodes()).map(tpn_dataflow::NodeId::from_index) {
        let recorded = s.recorded_iterations(node) as u64;
        fold(recorded);
        (0..recorded + 2 * k).for_each(|j| fold(s.start_time(node, j)));
    }
    h
}

#[test]
fn schedule_read_offs_are_pinned() {
    // Every schedule the engines read off, as `schedule_hash` folds it:
    // `(loop, [analytic, frustum, FIFO SCP at depths 1, 4, 8, priority
    // SCP at depths 1, 4, 8])`. A change to how a kernel, its offsets or
    // the recorded starts are derived shows here even when the initiation
    // interval stays the same.
    use tpn_dataflow::to_petri::to_petri;
    use tpn_sched::policy::{FifoPolicy, PriorityPolicy};
    use tpn_sched::scp::build_scp;
    use tpn_sched::{analytic_schedule, detect_frustum, detect_frustum_eager, LoopSchedule};
    let pinned: [(&str, [u64; 8]); 10] = [
        (
            "loop1",
            [
                0x0498_6B3C_63F6_D9C8,
                0x0498_6B3C_63F6_D9C8,
                0xFAF4_A36B_D059_5D37,
                0x344B_1327_B54C_1B1F,
                0xECB9_B755_D3EE_DE01,
                0x3B48_D441_8139_69AA,
                0x344B_1327_B54C_1B1F,
                0xECB9_B755_D3EE_DE01,
            ],
        ),
        (
            "loop7",
            [
                0x5727_F949_82E9_AC2F,
                0x40FE_9147_ACBF_4163,
                0x7B83_3DB8_BCAD_DF9D,
                0x3798_6768_0F7F_F6DE,
                0x5014_2EDE_2EA9_95D7,
                0x8A56_E5DB_B66F_0305,
                0xBFD4_8DA5_32FC_2F56,
                0x6CF4_C212_B71B_BBC9,
            ],
        ),
        (
            "loop12",
            [
                0xDC21_0E6B_AE74_BA99,
                0xC650_A13A_9A17_7B44,
                0xC650_A13A_9A17_7B44,
                0xC650_A13A_9A17_7B44,
                0xC650_A13A_9A17_7B44,
                0xC650_A13A_9A17_7B44,
                0xC650_A13A_9A17_7B44,
                0xC650_A13A_9A17_7B44,
            ],
        ),
        (
            "loop3",
            [
                0xE40F_2E18_46DC_7409,
                0xE40F_2E18_46DC_7409,
                0xE40F_2E18_46DC_7409,
                0xE87D_FABB_87A7_1E12,
                0xC45E_982F_F8BD_4B61,
                0xE40F_2E18_46DC_7409,
                0xE87D_FABB_87A7_1E12,
                0xC45E_982F_F8BD_4B61,
            ],
        ),
        (
            "loop5",
            [
                0x4B3F_237D_A925_A49F,
                0x4B3F_237D_A925_A49F,
                0x4B3F_237D_A925_A49F,
                0xE1EA_927D_2DA7_25FB,
                0xC3CF_2364_7B03_660A,
                0x4B3F_237D_A925_A49F,
                0xE1EA_927D_2DA7_25FB,
                0xC3CF_2364_7B03_660A,
            ],
        ),
        (
            "loop9",
            [
                0x3BDF_4B29_06F6_EC11,
                0xAB62_ED9B_CE02_8DBD,
                0x8C9E_DDE2_F602_7094,
                0x12DD_87C0_FF13_F346,
                0xC2E1_AFD3_3BFC_DD52,
                0xA414_C09C_8855_FD04,
                0x97F2_3B15_3B78_6666,
                0xC2E1_AFD3_3BFC_DD52,
            ],
        ),
        (
            "loop9-doall",
            [
                0x47A4_50A1_968B_3A6B,
                0xE19D_0CFE_3079_1664,
                0x73B2_FC18_9682_074D,
                0x9CAF_43AB_05B4_3C40,
                0x0B23_375E_5D05_2539,
                0xD938_1250_02FD_4985,
                0x33B2_33DE_DB4E_D8F5,
                0x26F1_44EA_FC5B_E146,
            ],
        ),
        (
            "chain/64",
            [
                0xF614_2A67_BBE2_3840,
                0xF614_2A67_BBE2_3840,
                0x9AFC_C0F5_A87E_115F,
                0xC19A_0BA4_50D0_D85F,
                0xBF25_1983_5422_A59C,
                0x229B_2386_A666_1782,
                0x8DA6_3AFE_F43F_ED7A,
                0xA726_3440_4765_BECE,
            ],
        ),
        (
            "chain/160",
            [
                0x3D80_CD53_C46F_4995,
                0x3D80_CD53_C46F_4995,
                0x896A_AF1A_2755_797D,
                0xC247_02BD_DCD5_11C2,
                0x47B0_D2DE_995E_76FD,
                0xDF09_DDA1_CDE3_84A2,
                0x9FD1_1989_75C6_AEAE,
                0xC292_C048_BC07_EF5F,
            ],
        ),
        (
            "ring/48",
            [
                0xE79C_0532_AB33_7CBF,
                0x3642_1F91_5519_9856,
                0x3642_1F91_5519_9856,
                0xAA1A_A559_DA2D_1A1C,
                0x914A_281D_09CA_E141,
                0x3642_1F91_5519_9856,
                0xAA1A_A559_DA2D_1A1C,
                0x914A_281D_09CA_E141,
            ],
        ),
    ];
    for (name, want) in pinned {
        let sdsp = named_loop(name);
        let pn = to_petri(&sdsp);
        let frustum = detect_frustum_eager(&pn.net, pn.marking.clone(), 100_000).expect(name);
        let mut got = vec![
            schedule_hash(&analytic_schedule(&sdsp, &pn).expect(name)),
            schedule_hash(&LoopSchedule::from_frustum(&sdsp, &pn, &frustum).expect(name)),
        ];
        for priority in [false, true] {
            for depth in [1, 4, 8] {
                let scp = build_scp(&pn, depth);
                let (net, marking, budget) = (&scp.net, scp.marking.clone(), 100_000 * depth);
                let run = match priority {
                    false => detect_frustum(net, marking, FifoPolicy::new(&scp), budget),
                    true => detect_frustum(net, marking, PriorityPolicy::new(&scp), budget),
                };
                let s = LoopSchedule::from_scp_frustum(&sdsp, &scp, &run.expect(name));
                got.push(schedule_hash(&s.expect(name)));
            }
        }
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn every_kernel_checks_liveness_on_the_arcs_of_its_named_net() {
    // The front end's liveness repair checks `to_marked_arcs`, not the
    // named net: the two list the same places in the same order, so the
    // check reports the same cycle and every repair is unchanged. The
    // last source needs a buffer inserted.
    let mixed = "do i from 1 to n { E[i] := S[i]; Y[i] := E[i] * 2; V[i] := E[i-1] + Y[i]; }";
    let sources = kernels().into_iter().map(|k| k.source).chain([mixed]);
    for source in sources {
        let lp = CompiledLoop::from_source(source).expect(source);
        let pn = lp.petri_net();
        let (arcs, _) = tpn::dataflow::to_petri::to_marked_arcs(lp.sdsp());
        assert_eq!(
            arcs,
            tpn_petri::marked::MarkedArcs::new(&pn.net, &pn.marking).unwrap(),
            "{source}"
        );
        assert_eq!(
            arcs.check_live(),
            check_live(&pn.net, &pn.marking),
            "{source}"
        );
    }
}

#[test]
fn explain_renders_issue_words_only_within_the_budget() {
    use tpn_livermore::synth::recurrence_ring;
    // A whole-body ring of n nodes has period n, so its words take n²
    // characters: 4 096² is exactly the budget, 4 100² is past it.
    for (n, rendered) in [(64, true), (4_096, true), (4_100, false)] {
        let lp = CompiledLoop::from_sdsp(recurrence_ring(n));
        let ex = lp.explain().expect("rings are live");
        let chars = n as u64 * n as u64;
        assert_eq!(chars <= tpn::ISSUE_WORDS_BUDGET, rendered, "ring/{n}");
        assert_eq!(ex.issue_words.is_some(), rendered, "ring/{n}");
        assert!(ex.validated, "ring/{n}: {:?}", ex.validation_errors);
        assert_eq!(ex.cycle_time, Ratio::from_integer(n as u64), "ring/{n}");
    }
}

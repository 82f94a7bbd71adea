//! `star_htap`: snowflake reads beside fact-table appends, deletes and
//! standing-view polls, through the algebra front door.
//!
//! Each step, in order: `prepare` the snowflake query (the `Prepared`
//! pins a snapshot); append one fresh fact row while it is pinned;
//! poll the standing view `(F ⋈ D2 ⋈ D3) ⟕ D1`; run the prepared query
//! and drop it; delete the row appended `window` steps earlier, so `F`
//! keeps a constant size. A quarter of the appended rows carry a `d1`
//! that matches nothing, so the view gains a null-padded row that the
//! later delete retracts.

use crate::trace::{self, Tracer};
use crate::util::{kernel_ms, ms, quantile, ratio, Rng};
use crate::{
    expect_set_eq, insert_read_metrics, insert_self_times, repeat_setup, second_engine, Inject,
    Outcome, PlanCounters, Run, Tally,
};
use fro::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(F ⋈ D2 ⋈ D3) ⟕ D1`: a fact row survives when its `d2` and `d3`
/// match, padded with nulls when its `d1` does not.
fn view_query() -> Query {
    Query::rel("F")
        .join(Query::rel("D2"), Pred::eq_attr("F.d2", "D2.k"))
        .join(Query::rel("D3"), Pred::eq_attr("F.d3", "D3.k"))
        .outerjoin(Query::rel("D1"), Pred::eq_attr("F.d1", "D1.k"))
}

/// An appended fact row and whether its `d1` matches a dimension row.
struct Appended {
    row: Tuple,
    v: i64,
    d1_matches: bool,
}

struct Setup {
    _db: Arc<SharedDb>,
    session: Session,
    query: Query,
    view: StandingId,
    /// Column of `F.v` in the view's scheme.
    view_v: usize,
    /// Snowflake rows and view rows with no appended row live.
    base_query_rows: usize,
    base_view_rows: usize,
    live: VecDeque<Appended>,
    rng: Rng,
    next: i64,
}

/// One step's timings, in ms.
struct Sample {
    query: f64,
    append: f64,
    delete: Option<f64>,
    fresh: f64,
    busy: f64,
}

/// Per-step counters of the traced phase.
#[derive(Default)]
struct Counters {
    plan: PlanCounters,
    maint: ExecStats,
}

fn setup(run: &Run) -> Result<Setup, String> {
    let p = &run.scale.star;
    let (storage, _, query) = fro_testkit::workloads::star(p);
    let db = SharedDb::new();
    let session = db.session();
    for (name, table) in storage.iter() {
        session.insert_table(name, table.relation().clone());
    }
    drop(storage);
    let reg = session
        .register_standing(&view_query())
        .map_err(|e| format!("register: {e}"))?;
    let (view, _) = session
        .poll_standing(reg.id)
        .map_err(|e| format!("poll: {e}"))?;
    let view_v = view
        .schema()
        .index_of(&Attr::new("F", "v"))
        .ok_or("view has no F.v")?;
    let base_query_rows = second_opinion(&session, &query)
        .map_err(|e| format!("first snowflake: {e}"))?
        .len();
    let mut s = Setup {
        _db: db,
        session,
        query,
        view: reg.id,
        view_v,
        base_query_rows,
        base_view_rows: view.len(),
        live: VecDeque::new(),
        rng: Rng::new(run.seed),
        next: 0,
    };
    // Warm pass: fill the delete window and run a few deletes, so the
    // timed steps all see a constant-size fact table.
    let mut tally = Tally::default();
    let mut tr = Tracer::new(Instant::now(), false, 0);
    for _ in 0..run.scale.window + 2 {
        step(
            &mut s,
            run,
            &mut tr,
            0,
            &mut tally,
            &mut Counters::default(),
            false,
        );
    }
    match tally.notes.first() {
        Some(note) if tally.failed > 0 => Err(format!("warm pass: {note}")),
        _ => Ok(s),
    }
}

fn next_row(s: &mut Setup, p: &fro_testkit::workloads::StarParams) -> Appended {
    let u = p.match_keys as i64;
    let k = s.rng.below(u as u64) as i64;
    let d1_matches = s.rng.below(4) != 0;
    let i = s.next;
    s.next += 1;
    let v = 2_000_000 + i;
    let mut values = vec![Value::Int(if d1_matches { k } else { 90_000_000 + i })];
    values.extend((1..p.dims as i64).map(|j| Value::Int((k + j) % u)));
    values.push(Value::Int(v));
    Appended {
        row: Tuple::new(values),
        v,
        d1_matches,
    }
}

/// One step; `None` when an operation failed.
fn step(
    s: &mut Setup,
    run: &Run,
    tr: &mut Tracer,
    req: u64,
    tally: &mut Tally,
    c: &mut Counters,
    corrupt: bool,
) -> Option<Sample> {
    let add = next_row(s, &run.scale.star);
    let want_query = s.base_query_rows + s.live.iter().filter(|a| a.d1_matches).count();
    let maint0 = s.session.local_maintenance_stats();
    let root = tr.reserve();

    let t0 = Instant::now();
    let prepared = s.session.prepare(&s.query);
    let t1 = Instant::now();
    tr.record("optimizer.optimize", req, Some(root), t0, t1);
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            tally.fail(format!("prepare: {e}"));
            return None;
        }
    };
    let appended = s.session.append_rows("F", vec![add.row.clone()]);
    let t2 = Instant::now();
    tr.record("storage.append", req, Some(root), t1, t2);
    let (row, v) = (add.row.clone(), add.v);
    s.live.push_back(add);
    // Every live appended row is in the view: joined when its d1
    // matches, null-padded otherwise.
    let want_view = s.base_view_rows + s.live.len();
    let polled = s.session.poll_standing(s.view);
    let t3 = Instant::now();
    tr.record("standing.poll", req, Some(root), t2, t3);
    let ran = prepared.run_with_stats();
    let t4 = Instant::now();
    tr.record("exec.run", req, Some(root), t3, t4);
    let optimized = tr.enabled().then(|| prepared.optimized().clone());
    // Dropping the statement releases the generation it pinned.
    drop(prepared);
    let mut end = Instant::now();
    tr.record("storage.release", req, Some(root), t4, end);
    let mut delete = None;
    let mut deleted = true;
    if s.live.len() > run.scale.window {
        let old = s.live.pop_front().expect("window is not empty");
        let t5 = Instant::now();
        deleted = s.session.delete_rows("F", &[old.row]);
        end = Instant::now();
        tr.record("storage.delete", req, Some(root), t5, end);
        delete = Some(ms(end - t5));
    }
    tr.record_as(root, "e2e.step", req, None, t0, end, false);

    // Output checks, outside the timed calls.
    let mut ok = true;
    let mut fail = |tally: &mut Tally, what: String| {
        ok = false;
        tally.fail(what);
    };
    if !appended {
        fail(tally, format!("append of {row:?} refused"));
    } else if !deleted {
        fail(tally, "delete refused".into());
    } else {
        tally.ok();
    }
    match &polled {
        Ok((view, _)) => {
            let reflected = view
                .rows()
                .iter()
                .any(|t| t.get(s.view_v) == &Value::Int(v));
            if reflected && view.len() == want_view {
                tally.ok();
            } else {
                fail(
                    tally,
                    format!(
                        "view has {} rows, want {want_view} (appended row seen: {reflected})",
                        view.len()
                    ),
                );
            }
        }
        Err(e) => fail(tally, format!("poll: {e}")),
    }
    match &ran {
        Ok((out, stats)) => {
            let got = out.len() - usize::from(corrupt && !out.is_empty());
            if got == want_query {
                tally.ok();
            } else {
                fail(
                    tally,
                    format!("snowflake has {got} rows, want {want_query}"),
                );
            }
            if let Some(o) = &optimized {
                c.plan.absorb(o, stats);
            }
        }
        Err(e) => fail(tally, format!("run: {e}")),
    }
    if tr.enabled() {
        let m = s.session.local_maintenance_stats();
        c.maint.delta_rows_in += m.delta_rows_in - maint0.delta_rows_in;
        c.maint.delta_rows_out += m.delta_rows_out - maint0.delta_rows_out;
        c.maint.views_refreshed += m.views_refreshed - maint0.views_refreshed;
    }
    ok.then(|| Sample {
        query: ms(t1 - t0) + ms(t4 - t3),
        append: ms(t2 - t1),
        delete,
        fresh: ms(t3 - t1),
        busy: ms(t4 - t0) + delete.unwrap_or(0.0),
    })
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    /// The kernel time after each sampled step, in ms.
    kernels: Vec<f64>,
    tally: Tally,
    counters: Counters,
    spans: Vec<trace::Span>,
}

impl Phase {
    fn q(&self, pick: impl Fn(&Sample) -> Option<f64>, q: f64) -> f64 {
        let v: Vec<f64> = self.samples.iter().filter_map(pick).collect();
        quantile(&v, q)
    }
}

fn phase(s: &mut Setup, run: &Run, secs: f64, tracing: bool, inject: Inject) -> Phase {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, tracing, 0);
    let mut ph = Phase::default();
    if inject.fail {
        // Kept out of the timed mix: counted, never timed.
        match s
            .session
            .prepare(&Query::rel("NOWHERE"))
            .and_then(|p| p.run())
        {
            Ok(_) => ph.tally.ok(),
            Err(e) => ph.tally.fail(format!("injected query: {}", e.code())),
        }
    }
    let deadline = origin + Duration::from_secs_f64(secs);
    let mut req = 0;
    while Instant::now() < deadline {
        req += 1;
        let corrupt = inject.wrong && req == 1;
        if let Some(x) = step(
            s,
            run,
            &mut tr,
            req,
            &mut ph.tally,
            &mut ph.counters,
            corrupt,
        ) {
            ph.samples.push(x);
            ph.kernels.push(kernel_ms());
        }
    }
    ph.spans = tr.spans;
    ph
}

/// `q` on the current generation without `Prepared`: an unreduced
/// plan run by [`second_engine`].
fn second_opinion(session: &Session, q: &Query) -> Result<Relation, String> {
    let state = session.shared().snapshot();
    let optimized = optimize_with_reduce(q, state.catalog(), session.policy(), ReducePolicy::Never)
        .map_err(|e| e.to_string())?;
    second_engine(&optimized.plan, state.storage())
}

/// End-of-run checks: the view equals a canonicalized cold execution
/// of its plan, and the snowflake equals its [`second_opinion`]. (The
/// reference evaluator joins by nested loops and needs about 12 s for
/// the full snowflake, so it runs at a tenth of the scale instead:
/// [`small_reference_check`].)
fn final_checks(s: &Setup, tally: &mut Tally) {
    let cold = s.session.prepare(&view_query()).and_then(|p| {
        let mut st = ExecStats::new();
        let cfg = ExecConfig::default();
        Ok(execute_with(p.plan(), &s.session.storage(), &mut st, &cfg)?.canonical())
    });
    let view = s.session.poll_standing(s.view).map(|(v, _)| v);
    expect_set_eq(
        view.map_err(|e| e.to_string()),
        cold.map_err(|e| e.to_string()),
        "final view against cold execution",
        tally,
    );
    expect_set_eq(
        s.session
            .prepare(&s.query)
            .and_then(|p| p.run())
            .map_err(|e| e.to_string()),
        second_opinion(&s.session, &s.query),
        "final snowflake against its evaluation without Prepared",
        tally,
    );
}

/// The workload's operations at a tenth of the scale, checked against
/// the reference evaluator: the view and the snowflake after appends
/// (one with a `d1` that matches nothing) and a delete.
fn small_reference_check(run: &Run, tally: &mut Tally) {
    let p = run.scale.star;
    let tenth = |x: usize| (x / 10).max(1);
    let small = fro_testkit::workloads::StarParams {
        match_keys: tenth(p.match_keys),
        good_rows: tenth(p.good_rows),
        hot_keys: tenth(p.hot_keys),
        hot_dup: tenth(p.hot_dup),
        junk_rows: tenth(p.junk_rows),
        wide_keys: p.wide_keys / 10,
        ..p
    };
    let (storage, _, query) = fro_testkit::workloads::star(&small);
    let session = SharedDb::new().session();
    for (name, table) in storage.iter() {
        session.insert_table(name, table.relation().clone());
    }
    let view = match session.register_standing(&view_query()) {
        Ok(r) => r.id,
        Err(e) => return tally.fail(format!("small register: {e}")),
    };
    let u = small.match_keys as i64;
    let row = |d1: i64, k: i64, v: i64| {
        let mut values = vec![Value::Int(d1)];
        values.extend((1..small.dims as i64).map(|j| Value::Int((k + j) % u)));
        values.push(Value::Int(v));
        Tuple::new(values)
    };
    let rows = [
        row(0, 0, 2_000_000),
        row(90_000_000, 1, 2_000_001),
        row(2 % u, 2, 2_000_002),
    ];
    let mutated = session.append_rows("F", rows.to_vec()) && session.delete_rows("F", &rows[2..]);
    if !mutated {
        return tally.fail("small append/delete refused".into());
    }
    let db = session.storage().to_database();
    expect_set_eq(
        session
            .poll_standing(view)
            .map(|(v, _)| v)
            .map_err(|e| e.to_string()),
        view_query().eval(&db).map_err(|e| e.to_string()),
        "small view against the reference evaluator",
        tally,
    );
    expect_set_eq(
        session
            .prepare(&query)
            .and_then(|p| p.run())
            .map_err(|e| e.to_string()),
        query.eval(&db).map_err(|e| e.to_string()),
        "small snowflake against the reference evaluator",
        tally,
    );
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();

    let setups = match repeat_setup(run, || setup(run)) {
        Ok(x) => x,
        Err(e) => {
            out.tally.fail(e);
            return out;
        }
    };
    out.metrics.insert("setup_s", setups.setup_s);
    let mut s = setups.kept;
    small_reference_check(run, &mut out.tally);

    if !run.trace {
        let ph = phase(&mut s, run, run.seconds, false, run.inject);
        let column = |f: fn(&Sample) -> f64| -> Vec<f64> { ph.samples.iter().map(f).collect() };
        let (query, busy) = (column(|x| x.query), column(|x| x.busy));
        insert_read_metrics(&mut out, &query, &busy, &ph.kernels, setups.wall_setup_s);
        for (name, pick) in [
            (
                "append",
                (|x: &Sample| Some(x.append)) as fn(&Sample) -> Option<f64>,
            ),
            ("delete", |x: &Sample| x.delete),
            ("fresh", |x: &Sample| Some(x.fresh)),
        ] {
            out.report.push(format!(
                "wall clock: {name}_p50_ms={:.4} {name}_p90_ms={:.4}",
                ph.q(pick, 0.5),
                ph.q(pick, 0.9)
            ));
        }
        out.tally.merge(ph.tally);
    } else {
        let base = phase(&mut s, run, run.seconds / 2.0, false, run.inject);
        let traced = phase(&mut s, run, run.seconds / 2.0, true, Inject::default());
        let sp = &traced.spans;
        let c = &traced.counters;
        let per_step = |x: u64| ratio(x as f64, c.plan.reads as f64);
        let m = &mut out.metrics;
        insert_self_times(
            m,
            sp,
            &[
                ("optimizer.optimize_ms", "optimizer.optimize"),
                ("exec.run_ms", "exec.run"),
                ("storage.append_ms", "storage.append"),
                ("storage.delete_ms", "storage.delete"),
                ("standing.poll_ms", "standing.poll"),
            ],
        );
        c.plan.insert_metrics(m);
        let stored: u64 = s
            .session
            .storage()
            .iter()
            .map(|(_, t)| t.len() as u64)
            .sum();
        m.insert("storage.rows_stored", stored as f64);
        m.insert(
            "storage.bytes_per_row",
            ratio(setups.load_growth, stored as f64),
        );
        let view_rows = s.session.poll_standing(s.view).map_or(0, |(v, _)| v.len());
        m.insert("standing.view_rows", view_rows as f64);
        m.insert("standing.delta_rows_in", per_step(c.maint.delta_rows_in));
        m.insert("standing.delta_rows_out", per_step(c.maint.delta_rows_out));
        m.insert(
            "standing.views_refreshed",
            per_step(c.maint.views_refreshed),
        );
        let p50 = |ph: &Phase| ph.q(|x| Some(x.query), 0.5);
        m.insert("trace.overhead_ms", p50(&traced) - p50(&base));
        out.report.push(format!(
            "untraced query_p50_ms={:.4} traced query_p50_ms={:.4}",
            p50(&base),
            p50(&traced)
        ));
        out.samples = traced.samples.len();
        out.tally.merge(base.tally);
        out.tally.merge(traced.tally);
        out.spans = traced.spans;
    }
    final_checks(&s, &mut out.tally);
    out
}

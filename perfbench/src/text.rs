//! `text_local` and `text_remote`: six §5 UnNest/Link blocks over a
//! synthetic entity world, through `Session::query` in the embedding
//! process or through a loopback `Server` from one `Client`.

use crate::trace::{self, Span, Tracer};
use crate::util::{fingerprint, kernel_ms, median, ms, quantile, ratio, Rng};
use crate::{
    expect_set_eq, insert_read_metrics, insert_self_times, repeat_setup, second_engine, Inject,
    Outcome, PlanCounters, Run, Tally,
};
use fro::lang::{parse, plan_query, translate, EntityDb};
use fro::prelude::*;
use fro::trees::some_implementing_tree;
use fro::wire::{decode_response, encode_response, Response, ROWS_PER_BATCH};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The mix: UnNest ⋈ DEPARTMENT with a Location filter and a From-list
/// permutation of it (same graph signature); UnNest with a Link and a
/// Rank filter; a Link on its own; Link ⋈ EMPLOYEE with a selective
/// Rank filter; UnNest alone with a Rank filter.
pub const BLOCKS: [&str; 6] = [
    "Select All From EMPLOYEE*ChildName, DEPARTMENT \
     Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
    "Select All From DEPARTMENT, EMPLOYEE*ChildName \
     Where DEPARTMENT.D# = EMPLOYEE.D# and DEPARTMENT.Location = 'Queretaro'",
    "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager \
     Where EMPLOYEE.D# = DEPARTMENT.D# and EMPLOYEE.Rank > 10",
    "Select All From DEPARTMENT-->Audit",
    "Select All From DEPARTMENT-->Manager, EMPLOYEE \
     Where DEPARTMENT.D# = EMPLOYEE.D# and EMPLOYEE.Rank > 17",
    "Select All From EMPLOYEE*ChildName Where EMPLOYEE.Rank > 15",
];

/// A query that fails to translate; injected by the self-test only.
const FAILING: &str = "Select All From NOWHERE";

/// One set-up: the world, a local session over the database, and for
/// the remote workload the server plus one client. (Two clients on two
/// threads saturate a 2-core host, and their run-to-run spread was
/// wider than any usable bound.)
struct Setup {
    world: EntityDb,
    session: Session,
    remote: Option<(Server, Client)>,
    /// The warm pass's results, one per block.
    warm: Vec<Relation>,
}

fn setup(run: &Run, remote: bool) -> Result<Setup, String> {
    let world = fro_testkit::workloads::synthetic_entity_world(
        run.scale.depts,
        run.scale.emps_per_dept,
        run.seed,
    );
    let db = SharedDb::new();
    let session = Session::connect(&db).with_entity_db(world.clone());
    let mut warm = Vec::with_capacity(BLOCKS.len());
    let mut remote_parts = None;
    if remote {
        let opts = ServerOptions {
            edb: Some(world.clone()),
            ..ServerOptions::default()
        };
        let server = Server::start("127.0.0.1:0", Arc::clone(&db), opts)
            .map_err(|e| format!("server start: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for src in BLOCKS {
            let (out, _) = client.query(src).map_err(|e| format!("warm pass: {e}"))?;
            warm.push(out);
        }
        remote_parts = Some((server, client));
    } else {
        for src in BLOCKS {
            let out = session.query(src).and_then(|p| p.run());
            warm.push(out.map_err(|e| format!("warm pass: {e}"))?);
        }
    }
    Ok(Setup {
        world,
        session,
        remote: remote_parts,
        warm,
    })
}

/// Work counters of the traced requests of one phase.
#[derive(Default)]
struct Counters {
    plan: PlanCounters,
    ground_rows: u64,
    wire_bytes: u64,
    wire_rows: u64,
    wire_frames: u64,
    server_overhead_ms: Vec<f64>,
}

/// What the closed loop of one phase measured, per successful query:
/// its block, its latency and the kernel time after it, in ms.
#[derive(Default)]
struct Phase {
    blocks: Vec<usize>,
    latencies: Vec<f64>,
    kernels: Vec<f64>,
    tally: Tally,
    counters: Counters,
    spans: Vec<Span>,
}

/// The blocks in seeded order: each round runs every block once.
struct Mix {
    rng: Rng,
    round: Vec<usize>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            round: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..BLOCKS.len()).collect();
            self.rng.shuffle(&mut self.round);
        }
        self.round.pop().expect("refilled above")
    }
}

/// `Session::query` plus `run_with_stats`, recording `session.query`
/// and `exec.run` under `parent` (as replays when `replay`), with
/// parse, translate and optimize replayed as children of
/// `session.query` when tracing. Returns the result and the instants
/// before the query and after the run.
#[allow(clippy::too_many_arguments)]
fn local_query(
    session: &Session,
    world: &EntityDb,
    src: &str,
    tr: &mut Tracer,
    req: u64,
    parent: u64,
    replay: bool,
    c: &mut Counters,
) -> Result<(Relation, Instant, Instant), FroError> {
    let sq = tr.reserve();
    if tr.enabled() {
        // One untimed pass first, so the timed replays run as warm as the
        // call they are subtracted from.
        let _ = parse(src).and_then(|b| translate(&b, world));
        if let Ok(block) = tr.replay("lang.parse", req, sq, || parse(src)) {
            if let Ok(t) = tr.replay("lang.translate", req, sq, || translate(&block, world)) {
                c.ground_rows += t.database.iter().map(|(_, r)| r.len() as u64).sum::<u64>();
                if let Some(tree) = some_implementing_tree(&t.graph) {
                    let state = session.shared().snapshot();
                    let _ = tr.replay("optimizer.optimize", req, sq, || {
                        optimize_with_reduce(
                            &tree,
                            state.catalog(),
                            session.policy(),
                            session.reduce_policy(),
                        )
                    });
                }
            }
        }
    }
    let start = Instant::now();
    let prepared = session.query(src);
    let mid = Instant::now();
    tr.record_as(sq, "session.query", req, Some(parent), start, mid, replay);
    let prepared = prepared?;
    let (rel, stats) = prepared.run_with_stats()?;
    let end = Instant::now();
    let run = tr.reserve();
    tr.record_as(run, "exec.run", req, Some(parent), mid, end, replay);
    if tr.enabled() {
        c.plan.absorb(prepared.optimized(), &stats);
    }
    Ok((rel, start, end))
}

/// The frames a server streams for one result.
fn result_frames(rel: &Relation, stats: &ExecStats) -> Vec<Response> {
    let cols = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| (a.rel().to_string(), a.name().to_string()))
        .collect();
    let mut frames = vec![Response::Schema(cols)];
    for chunk in rel.rows().chunks(ROWS_PER_BATCH) {
        frames.push(Response::Rows(
            chunk.iter().map(|t| t.values().to_vec()).collect(),
        ));
    }
    frames.push(Response::Done(Box::new(*stats)));
    frames
}

/// Compare a result with its block's reference fingerprint; the
/// self-test's `wrong` injection drops a row first.
fn check_result(rel: &Relation, want: (usize, u64), corrupt: bool, i: usize, tally: &mut Tally) {
    let got = if corrupt && !rel.is_empty() {
        let rows = rel.rows()[1..].to_vec();
        fingerprint(&Relation::from_distinct_rows(rel.schema().clone(), rows))
    } else {
        fingerprint(rel)
    };
    if got == want {
        tally.ok();
    } else {
        tally.fail(format!(
            "block {i}: {} rows differ from the reference's {}",
            got.0, want.0
        ));
    }
}

/// Replays attributed to a traced round trip `srv`: the same source
/// run locally, and the result's frames through the codec.
#[allow(clippy::too_many_arguments)]
fn replay_remote(
    session: &Session,
    world: &EntityDb,
    src: &str,
    remote: (&Relation, &ExecStats, f64),
    tr: &mut Tracer,
    req: u64,
    srv: u64,
    ph: &mut Phase,
) {
    let (rel, stats, round_trip_ms) = remote;
    let c = &mut ph.counters;
    match local_query(session, world, src, tr, req, srv, true, c) {
        Ok((local, start, end)) => {
            c.server_overhead_ms.push(round_trip_ms - ms(end - start));
            if &local == rel {
                ph.tally.ok();
            } else {
                ph.tally
                    .fail(format!("{src}: remote result differs from local"));
            }
        }
        Err(e) => ph.tally.fail(format!("{src}: local replay: {e}")),
    }
    let payloads = tr.replay("wire.encode", req, srv, || {
        result_frames(rel, stats)
            .iter()
            .map(encode_response)
            .collect::<Result<Vec<_>, _>>()
    });
    let payloads = match payloads {
        Ok(p) => p,
        Err(e) => return ph.tally.fail(format!("{src}: encode: {e}")),
    };
    let decoded = tr.replay("wire.decode", req, srv, || {
        payloads
            .iter()
            .map(|p| decode_response(p))
            .collect::<Result<Vec<_>, _>>()
    });
    if let Err(e) = decoded {
        ph.tally.fail(format!("{src}: decode: {e}"));
    }
    c.wire_bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();
    c.wire_frames += payloads.len() as u64;
    c.wire_rows += rel.len() as u64;
}

/// Run the closed loop for `secs` seconds: through the server when the
/// set-up has one, else through the local session.
fn phase(
    s: &mut Setup,
    fps: &[(usize, u64)],
    run: &Run,
    secs: f64,
    tracing: bool,
    inject: Inject,
) -> Phase {
    let (world, session) = (&s.world, &s.session);
    let mut client = s.remote.as_mut().map(|(_, c)| c);
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, tracing, 0);
    let mut mix = Mix::new(run.seed);
    let mut ph = Phase::default();
    if inject.fail {
        // Kept out of the timed mix: counted, never timed.
        let r = match client.as_deref_mut() {
            Some(c) => c.query(FAILING).map(|_| ()),
            None => session.query(FAILING).map(|_| ()),
        };
        match r {
            Ok(()) => ph.tally.ok(),
            Err(e) => ph.tally.fail(format!("injected query: {}", e.code())),
        }
    }
    let deadline = origin + Duration::from_secs_f64(secs);
    let mut req = 0;
    while Instant::now() < deadline {
        let i = mix.next();
        let src = BLOCKS[i];
        req += 1;
        let root = tr.reserve();
        let srv = tr.reserve();
        let res = match client.as_deref_mut() {
            None => local_query(
                session,
                world,
                src,
                &mut tr,
                req,
                root,
                false,
                &mut ph.counters,
            )
            .map(|(rel, start, end)| (rel, None, start, end)),
            Some(c) => {
                let start = Instant::now();
                let res = c.query(src);
                let end = Instant::now();
                tr.record_as(srv, "server.roundtrip", req, Some(root), start, end, false);
                res.map(|(rel, stats)| (rel, Some(stats), start, end))
            }
        };
        let (rel, stats, start, end) = match res {
            Ok(r) => r,
            Err(e) => {
                ph.tally.fail(format!("block {i}: {e}"));
                continue;
            }
        };
        tr.record_as(root, "e2e.query", req, None, start, end, false);
        let corrupt = inject.wrong && ph.latencies.is_empty();
        ph.blocks.push(i);
        ph.latencies.push(ms(end - start));
        check_result(&rel, fps[i], corrupt, i, &mut ph.tally);
        ph.kernels.push(kernel_ms());
        if let (true, Some(stats)) = (tracing, stats) {
            let remote = (&rel, &stats, ms(end - start));
            replay_remote(session, world, src, remote, &mut tr, req, srv, &mut ph);
        }
    }
    ph.spans = tr.spans;
    ph
}

/// Blocks whose reference evaluation stays cheap on the full world.
/// The reference evaluator joins by nested loops, so a block with an
/// UnNest pays |EMPLOYEE| × |children| comparisons: about 16 s at 10k
/// employees.
const REFERENCE_ON_FULL_WORLD: [usize; 2] = [3, 4];

/// The reference evaluator on a translated block.
fn reference(src: &str, world: &EntityDb) -> Result<Relation, String> {
    let t = parse(src)
        .and_then(|b| translate(&b, world))
        .map_err(|e| e.to_string())?;
    let q = plan_query(&t).map_err(|e| e.to_string())?;
    q.eval(&t.database).map_err(|e| e.to_string())
}

/// A block evaluated without `Session`: its ground relations in fresh
/// storage, an unreduced plan for its graph run by [`second_engine`],
/// and its restrictions applied by the algebra's own filter.
fn second_opinion(src: &str, world: &EntityDb) -> Result<Relation, String> {
    let t = parse(src)
        .and_then(|b| translate(&b, world))
        .map_err(|e| e.to_string())?;
    let mut storage = Storage::new();
    for (name, rel) in t.database.iter() {
        storage.insert(name, rel.clone());
    }
    let tree = some_implementing_tree(&t.graph).ok_or("disconnected graph")?;
    let catalog = Catalog::from_storage(&storage);
    let optimized = optimize_with_reduce(&tree, &catalog, Policy::default(), ReducePolicy::Never)
        .map_err(|e| e.to_string())?;
    let mut out = second_engine(&optimized.plan, &storage)?;
    for r in &t.restrictions {
        out = fro::algebra::ops::restrict(&out, r).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// Output checks before timing; returns each block's fingerprint for
/// the timed loop.
///
/// - every block on a world of 1/20 the departments from the same
///   seed, and blocks [`REFERENCE_ON_FULL_WORLD`] on the run's world,
///   are set-equal to the reference evaluator;
/// - on the run's world, every block's warm result is set-equal to its
///   [`second_opinion`], and the From-list permutation equals its
///   original;
/// - remote results equal local ones.
fn check_blocks(s: &Setup, run: &Run, remote: bool, tally: &mut Tally) -> Vec<(usize, u64)> {
    let small = fro_testkit::workloads::synthetic_entity_world(
        (run.scale.depts / 20).max(1),
        run.scale.emps_per_dept,
        run.seed,
    );
    let small_session = Session::from_entity_db(small.clone());
    let run_on = |session: &Session, src: &str| {
        session
            .query(src)
            .and_then(|p| p.run())
            .map_err(|e| e.to_string())
    };
    let mut fps = Vec::with_capacity(BLOCKS.len());
    for (i, src) in BLOCKS.iter().enumerate() {
        expect_set_eq(
            run_on(&small_session, src),
            reference(src, &small),
            &format!("block {i} on the small world"),
            tally,
        );
        let warm = &s.warm[i];
        if REFERENCE_ON_FULL_WORLD.contains(&i) {
            expect_set_eq(
                Ok(warm.clone()),
                reference(src, &s.world),
                &format!("block {i}"),
                tally,
            );
        }
        expect_set_eq(
            Ok(warm.clone()),
            second_opinion(src, &s.world),
            &format!("block {i} against its evaluation without Session"),
            tally,
        );
        if remote {
            match run_on(&s.session, src) {
                Ok(local) if &local == warm => tally.ok(),
                Ok(_) => tally.fail(format!("block {i}: remote result differs from local")),
                Err(e) => tally.fail(format!("block {i} local: {e}")),
            }
        }
        fps.push(fingerprint(warm));
    }
    expect_set_eq(
        Ok(s.warm[1].clone()),
        Ok(s.warm[0].clone()),
        "permuted block 1 against block 0",
        tally,
    );
    fps
}

pub fn run(run: &Run, remote: bool) -> Outcome {
    let mut out = Outcome::default();

    let setups = match repeat_setup(run, || setup(run, remote)) {
        Ok(x) => x,
        Err(e) => {
            out.tally.fail(e);
            return out;
        }
    };
    out.metrics.insert("setup_s", setups.setup_s);
    let mut s = setups.kept;

    let fps = check_blocks(&s, run, remote, &mut out.tally);

    if !run.trace {
        let ph = phase(&mut s, &fps, run, run.seconds, false, run.inject);
        let lat = &ph.latencies;
        insert_read_metrics(&mut out, lat, lat, &ph.kernels, setups.wall_setup_s);
        for i in 0..BLOCKS.len() {
            let v: Vec<f64> = (0..lat.len())
                .filter(|&k| ph.blocks[k] == i)
                .map(|k| lat[k])
                .collect();
            out.report.push(format!(
                "block {i}: n={} wall-clock p50={:.3} ms p90={:.3} ms",
                v.len(),
                median(&v),
                quantile(&v, 0.9)
            ));
        }
        out.tally.merge(ph.tally);
    } else {
        let base = phase(&mut s, &fps, run, run.seconds / 2.0, false, run.inject);
        let traced = phase(
            &mut s,
            &fps,
            run,
            run.seconds / 2.0,
            true,
            Inject::default(),
        );
        let sp = &traced.spans;
        let c = &traced.counters;
        let m = &mut out.metrics;
        insert_self_times(
            m,
            sp,
            &[
                ("lang.parse_ms", "lang.parse"),
                ("lang.translate_ms", "lang.translate"),
                ("session.sync_ms", "session.query"),
                ("optimizer.optimize_ms", "optimizer.optimize"),
                ("exec.run_ms", "exec.run"),
                ("wire.encode_ms", "wire.encode"),
                ("wire.decode_ms", "wire.decode"),
            ],
        );
        let query_ms: Vec<f64> = sp
            .iter()
            .filter(|x| x.name == "session.query")
            .map(trace::Span::dur_ms)
            .collect();
        m.insert("session.query_ms", median(&query_ms));
        c.plan.insert_metrics(m);
        m.insert(
            "lang.ground_rows",
            ratio(c.ground_rows as f64, c.plan.reads as f64),
        );
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
        if remote {
            m.insert(
                "wire.bytes_per_row",
                ratio(c.wire_bytes as f64, c.wire_rows as f64),
            );
            m.insert(
                "wire.frames",
                ratio(c.wire_frames as f64, c.plan.reads as f64),
            );
            m.insert("server.overhead_ms", median(&c.server_overhead_ms));
        }
        m.insert(
            "trace.overhead_ms",
            median(&traced.latencies) - median(&base.latencies),
        );
        out.report.push(format!(
            "untraced query_p50_ms={:.4} traced query_p50_ms={:.4}",
            median(&base.latencies),
            median(&traced.latencies)
        ));
        out.samples = traced.latencies.len();
        out.tally.merge(base.tally);
        out.tally.merge(traced.tally);
        out.spans = traced.spans;
    }
    out
}

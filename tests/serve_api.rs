//! Integration tests for the `opm-api/v1` surface: property-based
//! encode/decode round-trips, malformed-frame fuzzing (the decoder must
//! reject, never panic), and end-to-end checks of the `opm serve`
//! daemon — byte-identity with one-shot `opm advise` and with a
//! committed golden reply, concurrent identical queries, bounded-queue
//! load shedding, and cooperative shutdown.

use opm_bench::serve::{self, Client, Server};
use opm_core::api::{
    read_frame, write_frame, ApiError, Query, QueryResult, Request, Response, MAX_EXACT_INT,
    MAX_FRAME_LEN,
};
use opm_kernels::{Engine, EngineConfig};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

const KERNELS: [&str; 8] = [
    "GEMM", "Cholesky", "SpMV", "SpTRANS", "SpTRSV", "FFT", "Stencil", "Stream",
];
const CONFIGS: [&str; 6] = [
    "brd-no-edram",
    "brd-edram",
    "knl-ddr",
    "knl-flat",
    "knl-cache",
    "knl-hybrid",
];

/// Build a query from a seed: `mask` selects which optional fields are
/// present, `base` seeds their values. Floats are dyadic so the
/// canonical renderer reproduces them exactly.
fn query_from_seed(kernel_ix: u64, config_ix: u64, mask: u64, base: u64) -> Query {
    let on = |bit: u32| mask & (1 << bit) != 0;
    let f = (base % 4096) as f64 / 4.0 + 0.25;
    Query {
        kernel: KERNELS[(kernel_ix % 8) as usize].to_string(),
        config: CONFIGS[(config_ix % 6) as usize].to_string(),
        n: on(0).then_some(base % 100_000 + 1),
        tile: on(1).then_some(base % 1000 + 1),
        rows: on(2).then_some(base % 10_000_000 + 1),
        nnz: on(3).then_some(base % 100_000_000 + 1),
        grid: on(4).then_some(base % 2048 + 1),
        threads: on(5).then_some(base % 512 + 1),
        span: on(6).then_some(f * 7.0),
        levels: on(7).then_some(f + 1.0),
        footprint_mb: on(8).then_some(f * 3.0),
        hot_mb: on(9).then_some(f),
        latency_bound: on(10).then_some(mask & (1 << 11) != 0),
    }
}

fn arb_query() -> impl Strategy<Value = Query> {
    (0u64..8, 0u64..6, 0u64..4096, 0u64..u64::MAX)
        .prop_map(|(k, c, mask, base)| query_from_seed(k, c, mask, base))
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        // JSON numbers are doubles: ids are exact only up to 2^53 - 1
        // (the documented interop limit of the wire format).
        0u64..(1 << 53),
        proptest::collection::vec(arb_query(), 0..5),
        0u64..2,
    )
        .prop_map(|(id, queries, sd)| Request {
            id,
            queries,
            shutdown: sd == 1,
        })
}

fn arb_result() -> impl Strategy<Value = QueryResult> {
    (0u64..7, 0u64..4096, "[a-z \"\\\\]{0,12}").prop_map(|(kind, base, detail)| match kind {
        0 => QueryResult::Err(ApiError::Overloaded),
        1 => QueryResult::Err(ApiError::Malformed(detail)),
        2 => QueryResult::Err(ApiError::UnknownKernel(detail)),
        3 => QueryResult::Err(ApiError::UnknownConfig(detail)),
        4 => QueryResult::Err(ApiError::BadParam(detail)),
        5 => QueryResult::Err(ApiError::Internal(detail)),
        _ => {
            let f = base as f64 / 8.0;
            QueryResult::Ok(Box::new(opm_core::api::Advice {
                kernel: "GEMM".into(),
                config: "knl-flat".into(),
                footprint_mb: f,
                time_ms: f + 0.5,
                gflops: f * 2.0,
                bandwidth_gbs: f / 2.0,
                dram_mb: f,
                opm_mb: f * 4.0,
                level_traffic: vec![opm_core::api::LevelTraffic {
                    level: detail,
                    bytes: f * 16.0,
                    time_ns: f,
                }],
                package_w: f + 1.0,
                dram_w: f + 2.0,
                energy_j: f * 3.0,
                recommended_mode: "flat".into(),
                guideline: "paper §6 guideline II".into(),
                explanation: "because".into(),
            }))
        }
    })
}

// ---------------------------------------------------------------------
// Round-trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_encode_decode_round_trips(req in arb_request()) {
        let text = req.render();
        let back = Request::parse(&text).expect("canonical encoding must decode");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn response_encode_decode_round_trips(
        id in 0u64..(1 << 53),
        results in proptest::collection::vec(arb_result(), 0..5),
    ) {
        let resp = Response { id, results };
        let text = resp.render();
        let back = Response::parse(&text).expect("canonical encoding must decode");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn frame_layer_round_trips(req in arb_request()) {
        let text = req.render();
        let mut buf = Vec::new();
        write_frame(&mut buf, &text).unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        prop_assert_eq!(got.as_deref(), Some(text.as_str()));
        // A second read on the drained stream is clean EOF, not an error.
        let mut cur = Cursor::new(&buf);
        read_frame(&mut cur).unwrap();
        prop_assert_eq!(read_frame(&mut cur).unwrap(), None);
    }
}

// ---------------------------------------------------------------------
// Malformed inputs: reject, never panic
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating a valid frame anywhere must yield EOF or a typed
    /// error — never a panic, never a phantom frame.
    #[test]
    fn truncated_frames_never_panic(req in arb_request(), cut in 0usize..4096) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.render()).unwrap();
        let cut = cut % buf.len();
        let out = read_frame(&mut Cursor::new(&buf[..cut]));
        match out {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded as complete"),
        }
    }

    /// Flipping one byte anywhere in the frame must never panic; if the
    /// frame still decodes, the document parser must also not panic.
    #[test]
    fn corrupted_frames_never_panic(req in arb_request(), pos in 0usize..4096, xor in 1u64..256) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.render()).unwrap();
        let pos = pos % buf.len();
        buf[pos] ^= xor as u8;
        if let Ok(Some(text)) = read_frame(&mut Cursor::new(&buf)) {
            let _ = Request::parse(&text); // any Result is fine; panics are not
        }
    }

    /// Arbitrary garbage bytes through the whole stack: never a panic.
    #[test]
    fn garbage_bytes_never_panic(bytes in proptest::collection::vec(0u64..256, 0..64)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        if let Ok(Some(text)) = read_frame(&mut Cursor::new(&raw)) {
            let _ = Request::parse(&text);
            let _ = Response::parse(&text);
        }
    }

    /// Arbitrary text documents (valid frames, junk payloads): the
    /// parsers return Err, they do not panic.
    #[test]
    fn junk_documents_never_panic(doc in "[a-z0-9{}\\[\\]\":,.\\\\ -]{0,64}") {
        let _ = Request::parse(&doc);
        let _ = Response::parse(&doc);
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let mut buf = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
    buf.extend_from_slice(b"xxxx");
    assert!(read_frame(&mut Cursor::new(&buf)).is_err());
}

#[test]
fn version_mismatch_is_a_decode_error() {
    let text = r#"{"v":"opm-api/v0","id":1,"queries":[]}"#;
    let err = Request::parse(text).unwrap_err();
    assert!(
        err.contains("opm-api/v1"),
        "error names the supported version: {err}"
    );
}

// ---------------------------------------------------------------------
// End-to-end: daemon behavior
// ---------------------------------------------------------------------

fn test_engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig::default()))
}

/// Spawn a server on an ephemeral port; returns its address and the
/// join handle yielding the final stats once a shutdown request lands.
fn spawn_server(
    engine: Arc<Engine>,
    max_inflight: usize,
) -> (String, std::thread::JoinHandle<serve::ServeStats>) {
    let server = Server::bind("127.0.0.1:0", engine, max_inflight).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle)
}

fn shutdown_request() -> Request {
    // Ids must stay within the JSON-double exact range (at most
    // 2^53 - 1) — a larger id is a malformed document and the daemon
    // ignores its flags.
    Request {
        id: 999,
        queries: Vec::new(),
        shutdown: true,
    }
}

fn sample_request(id: u64) -> Request {
    Request {
        id,
        queries: vec![
            Query {
                kernel: "GEMM".into(),
                config: "knl-flat".into(),
                n: Some(2048),
                tile: Some(384),
                ..Query::default()
            },
            Query {
                kernel: "SpTRSV".into(),
                config: "knl-ddr".into(),
                ..Query::default()
            },
            Query {
                kernel: "nope".into(),
                config: "knl-flat".into(),
                ..Query::default()
            },
        ],
        shutdown: false,
    }
}

/// Acceptance criterion: for the same request, `opm advise` (in-process
/// `respond`) and a served query return byte-identical responses.
#[test]
fn served_response_is_byte_identical_to_advise() {
    let engine = test_engine();
    let req = sample_request(7);
    let local = serve::respond(&engine, &req).render();

    let (addr, handle) = spawn_server(Arc::clone(&engine), 8);
    let mut client = Client::connect(&addr).unwrap();
    let served = client
        .roundtrip_raw(&req.render())
        .expect("served roundtrip");
    client.roundtrip(&shutdown_request()).expect("shutdown");
    handle.join().unwrap();

    assert_eq!(
        local, served,
        "opm advise and opm serve must agree byte-for-byte"
    );

    // And through the CLI advise path (its own global engine — the
    // rendering is deterministic, so bytes still match).
    let cli_out =
        opm_bench::cli::run(&["advise".to_string(), "--request".to_string(), req.render()])
            .expect("opm advise");
    assert_eq!(cli_out, served);
}

/// The request whose reply `tests/golden/serve_batch_reply.json` pins:
/// every kernel under every configuration at its documented defaults,
/// an unknown kernel whose echoed name needs escaping, and a `bad-param`
/// query.
fn golden_request() -> Request {
    let mut queries: Vec<Query> = KERNELS
        .iter()
        .flat_map(|kernel| {
            CONFIGS.iter().map(move |config| Query {
                kernel: kernel.to_string(),
                config: config.to_string(),
                ..Query::default()
            })
        })
        .collect();
    queries.push(Query {
        kernel: "DGEMV \"v2\"\\\n\t\u{1}é😀".into(),
        config: "knl-flat".into(),
        ..Query::default()
    });
    queries.push(Query {
        kernel: "GEMM".into(),
        config: "knl-flat".into(),
        n: Some(0),
        ..Query::default()
    });
    Request {
        id: 2017,
        queries,
        shutdown: false,
    }
}

/// The served bytes are pinned by a committed golden, so a renderer
/// change that alters them fails here even though the in-process and
/// the daemon paths share one renderer.
#[test]
fn served_batch_reply_matches_the_golden_bytes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/serve_batch_reply.json");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()));
    let req = golden_request();
    let engine = test_engine();
    assert_eq!(serve::respond(&engine, &req).render(), golden, "in-process");

    let (addr, handle) = spawn_server(engine, 4);
    let mut client = Client::connect(&addr).unwrap();
    let served = client.roundtrip_raw(&req.render()).expect("served");
    client.roundtrip(&shutdown_request()).expect("shutdown");
    handle.join().unwrap();
    assert_eq!(served, golden, "daemon");
}

/// N concurrent identical queries all get the same answer, byte for
/// byte.
#[test]
fn concurrent_identical_queries_get_identical_answers() {
    let engine = test_engine();
    let (addr, handle) = spawn_server(Arc::clone(&engine), 16);
    let req = Request {
        id: 1,
        queries: vec![Query {
            kernel: "FFT".into(),
            config: "knl-cache".into(),
            n: Some(200),
            ..Query::default()
        }],
        shutdown: false,
    };

    let n = 6;
    let workers: Vec<_> = (0..n)
        .map(|_| {
            let addr = addr.clone();
            let req = req.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.roundtrip(&req).expect("roundtrip")
            })
        })
        .collect();
    let responses: Vec<Response> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let mut client = Client::connect(&addr).unwrap();
    client.roundtrip(&shutdown_request()).expect("shutdown");
    let stats = handle.join().unwrap();

    for r in &responses {
        assert!(
            matches!(r.results[0], QueryResult::Ok(_)),
            "every concurrent query succeeds: {:?}",
            r.results[0]
        );
        assert_eq!(r.render(), responses[0].render());
    }
    assert_eq!(stats.queries, n as u64);
}

/// Over the admission bound every query in the request is answered with
/// the typed `overloaded` error — shed, not dropped.
#[test]
fn overloaded_server_sheds_with_typed_error() {
    let engine = test_engine();
    let (addr, handle) = spawn_server(engine, 0); // zero in-flight slots: shed everything
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .roundtrip(&sample_request(3))
        .expect("shed roundtrip");
    assert_eq!(resp.results.len(), 3);
    for r in &resp.results {
        assert_eq!(*r, QueryResult::Err(ApiError::Overloaded));
    }
    client.roundtrip(&shutdown_request()).expect("shutdown");
    let stats = handle.join().unwrap();
    // Both the probe request and the shutdown request were shed (the
    // shutdown flag is honored even on a shed request).
    assert_eq!(stats.shed, 2);
}

/// A malformed document gets a typed `malformed` answer and the
/// connection stays usable; a shutdown request then drains the server.
#[test]
fn malformed_document_answers_typed_error_then_serves_on() {
    let engine = test_engine();
    let (addr, handle) = spawn_server(engine, 4);
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .roundtrip_text(r#"{"v":"opm-api/v1","id":"not-a-number"}"#)
        .expect("malformed roundtrip");
    assert!(
        matches!(resp.results[0], QueryResult::Err(ApiError::Malformed(_))),
        "got {:?}",
        resp.results
    );
    // Same connection still answers real queries.
    let ok = client.roundtrip(&sample_request(9)).expect("follow-up");
    assert_eq!(ok.id, 9);
    client.roundtrip(&shutdown_request()).expect("shutdown");
    let stats = handle.join().unwrap();
    assert_eq!(stats.malformed, 1);
    assert!(stats.requests >= 2);
}

/// Ids ride JSON doubles, exact only up to 2^53 − 1: 2^53 + 1 parses
/// to the same double as 2^53, so both are answered `malformed` rather
/// than echoed as an id the client never sent; 2^53 − 1 round-trips.
#[test]
fn ids_beyond_the_exact_double_range_are_malformed() {
    let engine = test_engine();
    let (addr, handle) = spawn_server(engine, 4);
    let mut client = Client::connect(&addr).unwrap();
    for id in ["9007199254740992", "9007199254740993"] {
        let resp = client
            .roundtrip_text(&format!(r#"{{"v":"opm-api/v1","id":{id}}}"#))
            .expect("malformed roundtrip");
        match &resp.results[..] {
            [QueryResult::Err(ApiError::Malformed(m))] => {
                assert!(m.contains("9007199254740991"), "id {id}: {m}")
            }
            other => panic!("id {id}: got {other:?}"),
        }
    }
    let max = (1u64 << 53) - 1;
    assert_eq!(max, MAX_EXACT_INT);
    let resp = client
        .roundtrip_text(&format!(r#"{{"v":"opm-api/v1","id":{max}}}"#))
        .expect("max id roundtrip");
    assert_eq!(resp.id, max);
    assert!(resp.results.is_empty());
    client.roundtrip(&shutdown_request()).expect("shutdown");
    let stats = handle.join().unwrap();
    assert_eq!(stats.malformed, 2);
}

/// Unknown kernels/configs and zero-valued parameters come back as
/// typed per-query errors, not connection failures.
#[test]
fn bad_queries_get_typed_per_query_errors() {
    let engine = test_engine();
    let resp = serve::respond(
        &engine,
        &Request {
            id: 5,
            queries: vec![
                Query {
                    kernel: "warp-drive".into(),
                    config: "knl-flat".into(),
                    ..Query::default()
                },
                Query {
                    kernel: "GEMM".into(),
                    config: "knl-9000".into(),
                    ..Query::default()
                },
                Query {
                    kernel: "GEMM".into(),
                    config: "knl-flat".into(),
                    n: Some(0),
                    ..Query::default()
                },
            ],
            shutdown: false,
        },
    );
    assert!(matches!(
        resp.results[0],
        QueryResult::Err(ApiError::UnknownKernel(_))
    ));
    assert!(matches!(
        resp.results[1],
        QueryResult::Err(ApiError::UnknownConfig(_))
    ));
    assert!(matches!(
        resp.results[2],
        QueryResult::Err(ApiError::BadParam(_))
    ));
}

/// A request holding one string just under the frame cap decodes in
/// linear time (the decoder used to re-validate the rest of the frame
/// per character, pinning a daemon thread for minutes). The unknown
/// kernel is echoed in the error, so the reply exceeds the cap and must
/// come back as one typed `bad-param` result; the same connection then
/// answers a normal query.
#[test]
fn frame_sized_string_is_answered_promptly_and_the_connection_serves_on() {
    let engine = test_engine();
    let (addr, handle) = spawn_server(engine, 4);
    let client = Client::connect(&addr).unwrap();
    let head = r#"{"v":"opm-api/v1","id":11,"queries":[{"kernel":""#;
    let tail = r#"","config":"knl-flat"}]}"#;
    let name_len = MAX_FRAME_LEN as usize - head.len() - tail.len();
    let doc = format!("{head}{}{tail}", "k".repeat(name_len));
    assert_eq!(doc.len(), MAX_FRAME_LEN as usize);

    // Answered from a helper thread so a regression fails the test
    // instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = client;
        let resp = client.roundtrip_text(&doc);
        let _ = tx.send((client, resp));
    });
    let (mut client, resp) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a frame-sized request is answered within 60 s");
    let resp = resp.expect("over-cap reply roundtrip");
    assert_eq!(resp.id, 11);
    match &resp.results[..] {
        [QueryResult::Err(ApiError::BadParam(m))] => {
            assert!(m.contains(&MAX_FRAME_LEN.to_string()), "{m}")
        }
        other => panic!("got {other:?}"),
    }

    let ok = client.roundtrip(&sample_request(12)).expect("follow-up");
    assert_eq!(ok.id, 12);
    assert!(matches!(ok.results[0], QueryResult::Ok(_)));
    client.roundtrip(&shutdown_request()).expect("shutdown");
    handle.join().unwrap();
}

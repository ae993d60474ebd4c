//! Fuzz-ish property tests of the wire codec, hand-rolled and seeded like
//! the workspace's `tests/property.rs` (no proptest in the vendored-deps
//! world; failures print the offending case seed, which reproduces exactly).
//!
//! Properties:
//! 1. Random well-formed requests and responses **round-trip** bit-exactly.
//! 2. Every strict prefix of a valid body decodes to a typed error — never a
//!    panic, never a bogus success.
//! 3. Arbitrary garbage bodies decode to typed errors without panicking.
//! 4. A stream interleaving valid frames with garbage and oversized frames
//!    never desyncs: every valid frame decodes, every bad one errs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_server::error::FrameReadError;
use fg_server::framing::{read_frame, write_frame};
use fg_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    WireErrorCode, WirePayload,
};
use fg_service::ParamValue;

const CASES: u64 = 64;

fn arb_string(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.gen_range(0usize..max_len.max(1));
    (0..len)
        .map(|_| {
            // Mix ASCII with multi-byte code points to exercise UTF-8 paths.
            match rng.gen_range(0u32..10) {
                0 => 'λ',
                1 => '🜁',
                _ => char::from(rng.gen_range(0x20u32..0x7F) as u8),
            }
        })
        .collect()
}

fn arb_param(rng: &mut SmallRng) -> ParamValue {
    match rng.gen_range(0u32..3) {
        0 => ParamValue::U64(rng.gen_range(0u64..u64::MAX)),
        1 => ParamValue::I64(rng.gen_range(0u64..u64::MAX) as i64),
        // Arbitrary bit patterns (incl. NaNs): the codec is bit-exact.
        _ => ParamValue::F64(f64::from_bits(rng.gen_range(0u64..u64::MAX))),
    }
}

fn arb_request(rng: &mut SmallRng) -> Request {
    let mut request = Request::new(
        rng.gen_range(1u32..u32::MAX),
        arb_string(rng, 16),
        rng.gen_range(0u32..1_000_000),
    );
    for _ in 0..rng.gen_range(0usize..6) {
        request = request.param(arb_string(rng, 12), arb_param(rng));
    }
    request
}

fn arb_u64s(rng: &mut SmallRng, max: usize) -> Vec<u64> {
    (0..rng.gen_range(0usize..max)).map(|_| rng.gen_range(0u64..u64::MAX)).collect()
}

fn arb_response(rng: &mut SmallRng) -> Response {
    let correlation = rng.gen_range(0u32..u32::MAX);
    match rng.gen_range(0u32..6) {
        0 => Response::Result {
            correlation,
            payload: WirePayload::U32s(
                (0..rng.gen_range(0usize..40)).map(|_| rng.gen_range(0u32..u32::MAX)).collect(),
            ),
        },
        1 => Response::Result { correlation, payload: WirePayload::U64s(arb_u64s(rng, 40)) },
        2 => Response::Result {
            correlation,
            payload: WirePayload::Ppr {
                estimate: arb_u64s(rng, 30).into_iter().map(f64::from_bits).collect(),
                residual: arb_u64s(rng, 30).into_iter().map(f64::from_bits).collect(),
                pushes: rng.gen_range(0u64..u64::MAX),
            },
        },
        3 => {
            Response::Result { correlation, payload: WirePayload::Rw { visits: arb_u64s(rng, 40) } }
        }
        4 => Response::Error {
            correlation,
            code: [
                WireErrorCode::ShuttingDown,
                WireErrorCode::InvalidSource,
                WireErrorCode::MissingSource,
                WireErrorCode::UnknownKernel,
                WireErrorCode::InvalidParams,
                WireErrorCode::EngineFailure,
                WireErrorCode::UnsupportedResult,
                WireErrorCode::Protocol,
            ][rng.gen_range(0usize..8)],
            message: arb_string(rng, 80),
        },
        _ => Response::RetryAfter {
            correlation,
            retry_after_ms: rng.gen_range(0u32..u32::MAX),
            queue_depth: rng.gen_range(0u32..u32::MAX),
            capacity: rng.gen_range(0u32..u32::MAX),
        },
    }
}

/// Bit-exact equality (PartialEq is wrong for NaN-carrying floats).
fn bits_of_response(response: &Response) -> Vec<u8> {
    encode_response(response)
}

#[test]
fn random_requests_round_trip_bit_exactly() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xF00D + case);
        let request = arb_request(&mut rng);
        let body = encode_request(&request);
        let back = decode_request(&body).unwrap_or_else(|e| panic!("case {case}: {e}"));
        // Re-encoding the decoded value must reproduce the bytes — catches
        // both decode and encode drift, and sidesteps NaN PartialEq.
        assert_eq!(encode_request(&back), body, "case {case}");
    }
}

#[test]
fn random_responses_round_trip_bit_exactly() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xBEEF + case);
        let response = arb_response(&mut rng);
        let body = bits_of_response(&response);
        let back = decode_response(&body).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(bits_of_response(&back), body, "case {case}");
    }
}

#[test]
fn every_strict_prefix_of_a_valid_body_is_a_typed_error() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9E9E + case);
        let request_body = encode_request(&arb_request(&mut rng));
        for cut in 0..request_body.len() {
            // Never panics; never succeeds (the codec demands exact
            // consumption, so a shorter body must miss some field).
            assert!(
                decode_request(&request_body[..cut]).is_err(),
                "case {case}: request prefix of {cut} bytes decoded"
            );
        }
        let response_body = bits_of_response(&arb_response(&mut rng));
        for cut in 0..response_body.len() {
            assert!(
                decode_response(&response_body[..cut]).is_err(),
                "case {case}: response prefix of {cut} bytes decoded"
            );
        }
    }
}

#[test]
fn garbage_bodies_never_panic_the_decoders() {
    for case in 0..CASES * 4 {
        let mut rng = SmallRng::seed_from_u64(0x6A6B + case);
        let len = rng.gen_range(0usize..512);
        let body: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        // Either outcome is fine; what matters is "no panic" and, for the
        // rare accidental success, exact consumption already held.
        let _ = decode_request(&body);
        let _ = decode_response(&body);
    }
}

#[test]
fn interleaved_garbage_and_oversized_frames_never_desync_the_stream() {
    const CAP: usize = 1 << 16;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED + case);
        // Build a wire image: a shuffle of valid requests, garbage bodies,
        // and oversized bodies, remembering what we expect back.
        #[derive(Debug, PartialEq, Eq)]
        enum Expect {
            Valid,
            Garbage,
            Oversized,
        }
        let mut wire = Vec::new();
        let mut script = Vec::new();
        for _ in 0..rng.gen_range(1usize..12) {
            match rng.gen_range(0u32..3) {
                0 => {
                    write_frame(&mut wire, &encode_request(&arb_request(&mut rng))).unwrap();
                    script.push(Expect::Valid);
                }
                1 => {
                    let len = rng.gen_range(0usize..64);
                    let garbage: Vec<u8> =
                        (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
                    write_frame(&mut wire, &garbage).unwrap();
                    script.push(Expect::Garbage);
                }
                _ => {
                    write_frame(&mut wire, &vec![0xAAu8; CAP + 1]).unwrap();
                    script.push(Expect::Oversized);
                }
            }
        }
        let mut reader = wire.as_slice();
        for (i, expect) in script.iter().enumerate() {
            match read_frame(&mut reader, CAP) {
                Ok(body) => {
                    // The framing layer is agnostic to body content: both
                    // valid and garbage bodies arrive intact; the *codec*
                    // sorts them out.
                    match expect {
                        Expect::Valid => {
                            decode_request(&body).unwrap_or_else(|e| {
                                panic!("case {case} frame {i}: valid frame failed: {e}")
                            });
                        }
                        Expect::Garbage => {
                            // Usually an error; an accidental parse of random
                            // bytes is possible but must not panic.
                            let _ = decode_request(&body);
                        }
                        Expect::Oversized => {
                            panic!("case {case} frame {i}: oversized frame was delivered")
                        }
                    }
                }
                Err(FrameReadError::Oversized { .. }) => {
                    assert_eq!(
                        *expect,
                        Expect::Oversized,
                        "case {case} frame {i}: unexpected oversize"
                    );
                }
                Err(other) => panic!("case {case} frame {i}: stream broke: {other}"),
            }
        }
        // And the stream ends exactly at a frame boundary.
        assert!(matches!(read_frame(&mut reader, CAP), Err(FrameReadError::Closed)));
    }
}

//! The line-delimited JSON wire protocol.
//!
//! One [`PredictRequest`] per input line, one [`PredictResponse`] per
//! output line, **in input order** — a client can pipeline requests
//! and match responses positionally or by `id` (echoed verbatim).
//!
//! A response's `status` is a [`Status`] variant, on the wire one of
//! the [`status`] strings: `ok`
//! (with a [`PredictionReport`] in `result`), `error` (malformed line
//! or invalid spec, with `error` text) or `overloaded` (admission
//! control rejected the request; retry later).  Responses carry no
//! timing fields, so the stream is byte-identical across `--jobs`
//! values and batch splits.

use serde::{Deserialize, Serialize};

/// The wire strings of the terminal response statuses (what
/// [`Status`] serializes to; kept for callers that compare or store
/// raw status strings).
pub mod status {
    /// Prediction computed; `result` is populated.
    pub const OK: &str = "ok";
    /// Malformed request or invalid spec; `error` says why.
    pub const ERROR: &str = "error";
    /// Rejected by admission control (queue full or draining).
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline passed before the engine picked it up;
    /// the server shed it unanswered rather than spend batch capacity
    /// on a response the client has already given up on.
    pub const DEADLINE: &str = "deadline";
}

/// Terminal status of a [`PredictResponse`].
///
/// Serializes as the lowercase wire strings in [`status`] (`"ok"`,
/// `"error"`, `"overloaded"`, `"deadline"`), so replacing the old
/// stringly-typed field with this enum left the wire format
/// byte-identical.  The impls are hand-written (not derived) to pin
/// that encoding independently of derive-macro naming conventions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Status {
    /// Prediction computed; `result` is populated.
    Ok,
    /// Malformed request or invalid spec; `error` says why.
    Error,
    /// Rejected by admission control (queue full or draining).
    Overloaded,
    /// Shed because the request's deadline passed while queued.
    Deadline,
}

impl Status {
    /// The wire string (see [`status`]).
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => status::OK,
            Status::Error => status::ERROR,
            Status::Overloaded => status::OVERLOADED,
            Status::Deadline => status::DEADLINE,
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Status {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Status {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde::DeError> {
        match v {
            serde_json::Value::Str(s) if s == status::OK => Ok(Status::Ok),
            serde_json::Value::Str(s) if s == status::ERROR => Ok(Status::Error),
            serde_json::Value::Str(s) if s == status::OVERLOADED => Ok(Status::Overloaded),
            serde_json::Value::Str(s) if s == status::DEADLINE => Ok(Status::Deadline),
            other => Err(serde::DeError::new(format!(
                "unknown response status: {other:?}"
            ))),
        }
    }
}

/// One prediction request: which benchmark × class × processor-count
/// × chain-length coupling study to answer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Client-chosen correlation id, echoed in the response
    /// (defaults to 0).
    #[serde(default)]
    pub id: u64,
    /// Benchmark name (`bt`, `sp`, `lu`; case-insensitive).
    pub benchmark: String,
    /// Problem class letter (`S`, `W`, `A`, `B`; case-insensitive).
    pub class: String,
    /// Processor count (must be valid for the benchmark's grid).
    pub procs: usize,
    /// Window chain length `L` for the Eq. 2 coupling windows.
    pub chain_len: usize,
    /// Use the loop-level (fine) BT decomposition.
    #[serde(default)]
    pub fine: bool,
    /// Optional deadline, milliseconds from admission.  A request
    /// still queued when its deadline passes is shed with a
    /// [`status::DEADLINE`] response instead of occupying batch
    /// capacity, and queued requests with earlier deadlines are
    /// batched first.  The deadline stops at batch formation: a
    /// batch's cells run in the engine's usual order.  Absent
    /// (`null`) by default — deadline-free streams
    /// batch strictly FIFO and their responses stay byte-identical
    /// across `--jobs` values and batch splits.
    #[serde(default)]
    pub deadline_ms: Option<f64>,
}

impl PredictRequest {
    /// Compact descriptor for telemetry and logs, e.g. `bt/W/p9/len3`.
    pub fn describe(&self) -> String {
        format!(
            "{}/{}/p{}/len{}{}",
            self.benchmark.to_lowercase(),
            self.class.to_uppercase(),
            self.procs,
            self.chain_len,
            if self.fine { "/fine" } else { "" },
        )
    }
}

/// One kernel's contribution to the composed prediction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelContribution {
    /// Kernel name from the benchmark's loop decomposition.
    pub name: String,
    /// Composition coefficient `α_k` (Eq. 2 weighted average of the
    /// coupling values of every window containing this kernel).
    pub alpha: f64,
    /// Isolated per-iteration model `E_k`, seconds.
    pub isolated_secs: f64,
    /// This kernel's share of the coupled prediction:
    /// `α_k·E_k·iterations`, seconds.
    pub coupled_total_secs: f64,
}

/// The coupling-composed prediction for one request, with the
/// summation baseline and per-kernel breakdown.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredictionReport {
    /// Benchmark name, lowercase.
    pub benchmark: String,
    /// Problem class letter, uppercase.
    pub class: String,
    /// Processor count.
    pub procs: usize,
    /// Window chain length `L`.
    pub chain_len: usize,
    /// Loop iterations of the full application.
    pub loop_iterations: u64,
    /// Serial (init + final) overhead, seconds.
    pub overhead_secs: f64,
    /// Measured full-application time, seconds.
    pub actual_secs: f64,
    /// Coupling-composed prediction (`T = overhead + Σ α_k·E_k·iters`),
    /// seconds.
    pub coupled_secs: f64,
    /// Summation baseline (`α_k = 1`), seconds.
    pub summation_secs: f64,
    /// Relative error `|predicted − actual| / actual` of the coupled
    /// prediction, percent (as the paper reports it).
    pub coupled_rel_err_pct: f64,
    /// Relative error of the summation baseline, percent.
    pub summation_rel_err_pct: f64,
    /// Per-kernel breakdown, in kernel-set order.
    pub kernels: Vec<KernelContribution>,
}

/// One response line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// The request's correlation id (0 when the line did not parse).
    pub id: u64,
    /// Terminal status.
    pub status: Status,
    /// Failure detail for non-`ok` statuses.
    #[serde(default)]
    pub error: Option<String>,
    /// The prediction, for `ok`.
    #[serde(default)]
    pub result: Option<PredictionReport>,
}

impl PredictResponse {
    /// The one response constructor: a `status` plus its payload —
    /// `Ok(report)` populates `result`, `Err(message)` populates
    /// `error`.  The old per-status constructors are expressible as
    /// `new(id, Status::Ok, Ok(report))`,
    /// `new(id, Status::Overloaded, Err(msg))`, and so on.
    pub fn new(id: u64, status: Status, body: Result<PredictionReport, String>) -> Self {
        let (result, error) = match body {
            Ok(report) => (Some(report), None),
            Err(message) => (None, Some(message)),
        };
        Self {
            id,
            status,
            error,
            result,
        }
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<PredictRequest, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("bad request: {e}"))
}

/// Encode one response line (no trailing newline).
pub fn encode_response(response: &PredictResponse) -> String {
    serde_json::to_string(response).expect("responses serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_and_defaults_optional_fields() {
        let line = r#"{"benchmark":"bt","class":"w","procs":9,"chain_len":3}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(req.id, 0, "id defaults");
        assert!(!req.fine, "fine defaults");
        assert_eq!(req.deadline_ms, None, "deadline defaults to none");
        assert_eq!(req.describe(), "bt/W/p9/len3");
        let encoded = serde_json::to_string(&req).unwrap();
        let back = parse_request(&encoded).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn parse_rejects_garbage_and_missing_fields() {
        assert!(parse_request("not json").is_err());
        assert!(
            parse_request(r#"{"benchmark":"bt"}"#).is_err(),
            "class/procs/chain_len are required"
        );
    }

    #[test]
    fn describe_marks_the_fine_decomposition() {
        let req = PredictRequest {
            id: 7,
            benchmark: "BT".into(),
            class: "s".into(),
            procs: 4,
            chain_len: 2,
            fine: true,
            deadline_ms: None,
        };
        assert_eq!(req.describe(), "bt/S/p4/len2/fine");
    }

    #[test]
    fn deadline_parses_and_roundtrips() {
        let line = r#"{"benchmark":"bt","class":"S","procs":4,"chain_len":2,"deadline_ms":250.0}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(req.deadline_ms, Some(250.0));
        let back = parse_request(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
        // explicit null is the same as absent
        let line = r#"{"benchmark":"bt","class":"S","procs":4,"chain_len":2,"deadline_ms":null}"#;
        assert_eq!(parse_request(line).unwrap().deadline_ms, None);
    }

    #[test]
    fn status_enum_round_trips_as_the_wire_strings() {
        for (s, wire) in [
            (Status::Ok, "\"ok\""),
            (Status::Error, "\"error\""),
            (Status::Overloaded, "\"overloaded\""),
            (Status::Deadline, "\"deadline\""),
        ] {
            assert_eq!(serde_json::to_string(&s).unwrap(), wire);
            assert_eq!(serde_json::from_str::<Status>(wire).unwrap(), s);
            assert_eq!(format!("\"{s}\""), wire);
        }
        assert!(serde_json::from_str::<Status>("\"shrug\"").is_err());
        assert!(serde_json::from_str::<Status>("7").is_err());
    }

    #[test]
    fn response_constructor_sets_status_and_payload() {
        let ok = PredictResponse::new(
            3,
            Status::Ok,
            Ok(PredictionReport {
                benchmark: "bt".into(),
                class: "W".into(),
                procs: 9,
                chain_len: 3,
                loop_iterations: 200,
                overhead_secs: 1.0,
                actual_secs: 10.0,
                coupled_secs: 9.8,
                summation_secs: 9.0,
                coupled_rel_err_pct: -2.0,
                summation_rel_err_pct: -10.0,
                kernels: vec![KernelContribution {
                    name: "rhs".into(),
                    alpha: 1.05,
                    isolated_secs: 0.02,
                    coupled_total_secs: 4.2,
                }],
            }),
        );
        assert_eq!(ok.status, Status::Ok);
        assert!(ok.error.is_none());
        assert_eq!(ok.result.as_ref().unwrap().kernels.len(), 1);

        let err = PredictResponse::new(0, Status::Error, Err("bad request: not json".into()));
        assert_eq!(err.status, Status::Error);
        assert!(err.result.is_none());

        let over = PredictResponse::new(9, Status::Overloaded, Err("queue full".into()));
        assert_eq!(over.status, Status::Overloaded);

        let dead = PredictResponse::new(4, Status::Deadline, Err("deadline expired".into()));
        assert_eq!(dead.status, Status::Deadline);
        assert!(dead.result.is_none());

        // every shape round-trips through the wire encoding, and the
        // status field serializes exactly as the old string did
        for r in [ok, err, over, dead] {
            let line = encode_response(&r);
            assert!(line.contains(&format!("\"status\":\"{}\"", r.status.as_str())));
            let back: PredictResponse = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }
}

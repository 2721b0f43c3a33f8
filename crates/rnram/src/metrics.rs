//! Metrics bundles for the TCP server and client.
//!
//! Installed with [`Server::with_metrics`](crate::server::Server::with_metrics)
//! and [`TcpRemote::set_metrics`](crate::TcpRemote::set_metrics); without
//! them the hot paths pay one `Option` branch per operation. The metric
//! names are part of the stable contract in `docs/OBSERVABILITY.md`.

use perseas_obs::{Counter, Gauge, Histo, Registry};

/// Per-opcode request counter and service-latency histogram.
#[derive(Debug)]
pub(crate) struct OpMetrics {
    pub(crate) requests: Counter,
    pub(crate) latency: Histo,
}

/// The opcode label values the server registers up front. `seq`-wrapped
/// requests are attributed to their inner opcode; undecodable frames get
/// their own bucket so a fuzzing client is visible in the metrics.
pub(crate) const SERVER_OPS: [&str; 12] = [
    "malloc",
    "free",
    "write",
    "read",
    "write_v",
    "connect",
    "info",
    "name",
    "ping",
    "shutdown",
    "sess_close",
    "decode_error",
];

/// Server-side metrics: per-opcode request latency, bytes in/out, and
/// connection churn.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    ops: Vec<(&'static str, OpMetrics)>,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) connections: Gauge,
    pub(crate) connections_total: Counter,
    pub(crate) connections_dropped: Counter,
    /// Logical multiplexed sessions currently open across all connections.
    pub(crate) sessions: Gauge,
    /// Requests refused with [`Response::Overloaded`] because the shared
    /// admission queue was full.
    pub(crate) admission_refusals: Counter,
    /// Requests parked in the admission queue right now (received but not
    /// yet applied to memory).
    pub(crate) mux_queue_depth: Gauge,
    /// Requests admitted (applied) whose responses have not finished
    /// going out — occupancy of the shared window pool.
    pub(crate) mux_inflight: Gauge,
}

impl ServerMetrics {
    pub(crate) fn new(registry: &Registry) -> ServerMetrics {
        let ops = SERVER_OPS
            .iter()
            .map(|&op| {
                (
                    op,
                    OpMetrics {
                        requests: registry.counter_with(
                            "perseas_server_requests_total",
                            "Requests served, by opcode.",
                            &[("op", op)],
                        ),
                        latency: registry.histogram_with(
                            "perseas_server_request_seconds",
                            "Request service latency (decode + apply + encode, excluding injected response latency), by opcode.",
                            &[("op", op)],
                        ),
                    },
                )
            })
            .collect();
        ServerMetrics {
            ops,
            bytes_in: registry.counter(
                "perseas_server_bytes_in_total",
                "Request frame-body bytes received.",
            ),
            bytes_out: registry.counter(
                "perseas_server_bytes_out_total",
                "Response frame-body bytes sent (or queued for delayed send).",
            ),
            connections: registry.gauge(
                "perseas_server_connections",
                "Client connections currently being served.",
            ),
            connections_total: registry.counter(
                "perseas_server_connections_total",
                "Client connections accepted.",
            ),
            connections_dropped: registry.counter(
                "perseas_server_connections_dropped_total",
                "Connections that ended in a transport or protocol error instead of a clean EOF.",
            ),
            sessions: registry.gauge(
                "perseas_server_sessions",
                "Logical multiplexed client sessions currently open.",
            ),
            admission_refusals: registry.counter(
                "perseas_server_admission_refusals_total",
                "Requests refused as Overloaded because the admission queue was full.",
            ),
            mux_queue_depth: registry.gauge(
                "perseas_server_mux_queue_depth",
                "Requests waiting in the admission queue (received, not yet applied).",
            ),
            mux_inflight: registry.gauge(
                "perseas_server_mux_inflight",
                "Admitted requests whose responses are still in flight.",
            ),
        }
    }

    /// Handles for opcode `name` (must be one of [`SERVER_OPS`]).
    pub(crate) fn op(&self, name: &str) -> &OpMetrics {
        self.ops
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| m)
            .expect("opcode registered in SERVER_OPS")
    }
}

/// Client-side metrics for the TCP transport.
#[derive(Debug)]
pub(crate) struct ClientMetrics {
    /// Round trips (request + awaited response).
    pub(crate) ops: Counter,
    /// Writes posted without waiting for their acknowledgement.
    pub(crate) posted: Counter,
    /// Frame-body bytes put on the wire.
    pub(crate) bytes: Counter,
    /// Posts that found the window full and had to drain an ack first.
    pub(crate) window_stalls: Counter,
    pub(crate) flush_barriers: Counter,
    pub(crate) flush_posted: Counter,
    pub(crate) flush_bytes: Counter,
    /// Current posted-but-unacknowledged operations (window occupancy).
    pub(crate) in_flight: Gauge,
}

impl ClientMetrics {
    pub(crate) fn new(registry: &Registry) -> ClientMetrics {
        ClientMetrics {
            ops: registry.counter(
                "perseas_client_ops_total",
                "Request/response round trips.",
            ),
            posted: registry.counter(
                "perseas_client_posted_total",
                "Writes posted to the in-flight window without waiting.",
            ),
            bytes: registry.counter(
                "perseas_client_bytes_total",
                "Request frame-body bytes sent.",
            ),
            window_stalls: registry.counter(
                "perseas_client_window_stalls_total",
                "Posts that blocked on a full window until an ack drained.",
            ),
            flush_barriers: registry.counter(
                "perseas_client_flush_barriers_total",
                "Ack barriers: flush calls, and the barrier after each write of a confirmed connection.",
            ),
            flush_posted: registry.counter(
                "perseas_client_flush_posted_total",
                "Posted operations confirmed by flush barriers.",
            ),
            flush_bytes: registry.counter(
                "perseas_client_flush_bytes_total",
                "Posted payload bytes confirmed by flush barriers.",
            ),
            in_flight: registry.gauge(
                "perseas_client_in_flight",
                "Posted-but-unacknowledged operations in the window right now.",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_ops_are_preregistered_and_resolvable() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        for op in SERVER_OPS {
            m.op(op).requests.inc();
        }
        let text = registry.render();
        for op in SERVER_OPS {
            assert!(
                text.contains(&format!("perseas_server_requests_total{{op=\"{op}\"}} 1")),
                "{op} missing from exposition"
            );
        }
    }

    #[test]
    fn mux_metrics_render_under_their_documented_names() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.sessions.add(3);
        m.admission_refusals.inc();
        m.mux_queue_depth.add(2);
        m.mux_inflight.add(1);
        let text = registry.render();
        for line in [
            "perseas_server_sessions 3",
            "perseas_server_admission_refusals_total 1",
            "perseas_server_mux_queue_depth 2",
            "perseas_server_mux_inflight 1",
        ] {
            assert!(text.contains(line), "{line} missing from exposition");
        }
    }

    #[test]
    #[should_panic(expected = "opcode registered")]
    fn unknown_opcode_panics() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        let _ = m.op("frobnicate");
    }
}

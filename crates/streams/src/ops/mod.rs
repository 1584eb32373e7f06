//! The standard operator library.
//!
//! Mirrors the InfoSphere toolbox pieces the paper's application uses:
//! generator / file / network data sources (§III-A1), the multithreaded
//! load-balancing split (§III-A2) and sinks (callback, collector). The
//! paper's throttle operator (§III-B) has no counterpart: the sync
//! controller paces itself.

pub mod http;
pub mod http_server;
pub mod net;
pub mod sink;
pub mod source;
pub mod split;

pub use http::HttpSource;
pub use http_server::{ConnHandler, HttpServer, Request, ResponseBuf, ServerConfig, ServerStats};
pub use net::TcpSource;
pub use sink::{CallbackSink, CollectSink};
pub use source::{CsvFileSource, GeneratorSource, LineSource};
pub use split::{Split, SplitStrategy};

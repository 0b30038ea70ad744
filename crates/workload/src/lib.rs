//! PARSEC-style multithreaded workload models.
//!
//! The paper profiles the PARSEC 3.0 suite on the target Xeon as a function
//! of the assigned number of cores `Nc`, threads `Nt` and frequency `f`
//! (Sec. IV-B), and defines QoS constraints as allowed slowdown (1×/2×/3×)
//! w.r.t. the native (8 cores, 16 threads, f_max) execution.
//!
//! This crate replaces those measurements with an analytic model per
//! benchmark ([`BenchProfile`]): an Amdahl-style serial fraction, a
//! memory-bound share that neither frequency nor extra cores accelerate past
//! the bandwidth saturation point, an SMT gain for the second hardware
//! thread, and a synchronization overhead growing with core count. The same
//! profile also carries the power characteristics (per-core dynamic power at
//! `f_max`, LLC/uncore activity) that the power model consumes.
//!
//! [`profile_application`] produces the `P_i`/`Q_i` vectors of Algorithm 1.
//!
//! ```
//! use tps_workload::{Benchmark, WorkloadConfig};
//! use tps_power::CoreFrequency;
//!
//! let cfg = WorkloadConfig::new(4, 2, CoreFrequency::F3_2).unwrap();
//! let t = Benchmark::Blackscholes.profile().normalized_time(cfg);
//! assert!(t > 1.0); // slower than the (8,16,fmax) baseline
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmark;
mod config;
mod demand;
mod exec;
mod profiler;
mod qos;
mod trace;

pub use benchmark::Benchmark;
pub use config::{ConfigError, WorkloadConfig};
pub use demand::{
    request_stream, synthesize_arrivals, BurstyDemand, ConstantDemand, DemandModel, DiurnalDemand,
    Request, RequestStream, ServingDemand,
};
pub use exec::BenchProfile;
pub use profiler::{profile_application, profile_config, ConfigProfile};
pub use qos::QosClass;
pub use trace::WorkloadTrace;

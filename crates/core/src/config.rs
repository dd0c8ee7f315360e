//! Run configuration and results shared by all algorithms.

use cubemm_dense::gemm::Kernel;
use cubemm_dense::Matrix;
use cubemm_simnet::{
    ChargePolicy, CostParams, FaultPlan, LinkTopology, Machine, MachineOptions, PortModel,
    RunError, RunStats,
};

/// Configuration of the simulated machine a multiplication runs on.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// One-port or multi-port nodes (paper §2).
    pub port: PortModel,
    /// Message cost parameters `t_s`, `t_w`.
    pub cost: CostParams,
    /// Local GEMM kernel (orthogonal to the communication comparison).
    pub kernel: Kernel,
    /// Record a per-message event trace (see `RunResult::traces`).
    pub traced: bool,
    /// Port-charging policy (the paper's sender-only accounting by
    /// default; `Symmetric` is the model-sensitivity ablation).
    pub charge: ChargePolicy,
    /// Physical link topology (full hypercube by default; `Torus2d`
    /// proves an algorithm uses mesh links only).
    pub links: LinkTopology,
    /// Deterministic fault injection (empty — healthy — by default).
    pub faults: FaultPlan,
    /// A machine validated ahead of time (see [`MachineConfig::prepare`])
    /// that runs under this config may reuse, skipping re-validation.
    /// Safe by construction: a run only uses it when its size and
    /// options still match what this config describes, so a stale cache
    /// entry degrades to a fresh boot, never a wrong machine.
    pub prepared: Option<Machine>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            port: PortModel::OnePort,
            cost: CostParams::PAPER,
            kernel: Kernel::default(),
            traced: false,
            charge: ChargePolicy::SenderOnly,
            links: LinkTopology::Hypercube,
            faults: FaultPlan::new(),
            prepared: None,
        }
    }
}

impl MachineConfig {
    /// Convenience constructor.
    pub fn new(port: PortModel, cost: CostParams) -> Self {
        MachineConfig {
            port,
            cost,
            ..MachineConfig::default()
        }
    }

    /// Starts a fluent builder over the default machine:
    ///
    /// ```
    /// use cubemm_core::prelude::*;
    /// use cubemm_simnet::{CostParams, PortModel};
    ///
    /// let cfg = MachineConfig::builder()
    ///     .port(PortModel::MultiPort)
    ///     .costs(CostParams { ts: 10.0, tw: 1.0 })
    ///     .kernel(Kernel::packed())
    ///     .build();
    /// assert_eq!(cfg.port, PortModel::MultiPort);
    /// ```
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder {
            cfg: MachineConfig::default(),
        }
    }

    /// Restricts the machine to the links of a `q × q` Gray-ring torus.
    pub fn on_torus(mut self, axis_bits: u32) -> Self {
        self.links = LinkTopology::Torus2d { axis_bits };
        self
    }

    /// Switches to the symmetric port-charging ablation.
    pub fn with_symmetric_charging(mut self) -> Self {
        self.charge = ChargePolicy::Symmetric;
        self
    }

    /// Enables per-message event tracing for runs under this config.
    pub fn with_trace(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Injects the given deterministic fault plan into runs under this
    /// config. Run failures (unroutable destinations, deadlocks, strict
    /// dead links) surface as [`crate::AlgoError::Sim`] instead of
    /// panics.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The simnet option block this configuration describes.
    pub fn machine_options(&self) -> MachineOptions {
        MachineOptions {
            port: self.port,
            cost: self.cost,
            charge: self.charge,
            links: self.links,
            traced: self.traced,
            faults: self.faults.clone(),
        }
    }

    /// Validates a reusable `p`-node [`Machine`] for this configuration
    /// — the cacheable artifact: boot it many times with
    /// [`Machine::run`], or attach it back with
    /// [`MachineConfig::with_prepared`] so every `multiply` under this
    /// config skips re-validation.
    pub fn prepare(&self, p: usize) -> Result<Machine, RunError> {
        Machine::new(p, self.machine_options())
    }

    /// Attaches a pre-validated machine (from [`MachineConfig::prepare`],
    /// possibly cached across jobs) for runs under this config to reuse.
    /// Runs ignore it — booting fresh — whenever its size or options no
    /// longer match the config.
    pub fn with_prepared(mut self, machine: Machine) -> Self {
        self.prepared = Some(machine);
        self
    }
}

/// Fluent constructor for [`MachineConfig`]; every field starts at its
/// default (one-port, paper costs, packed kernel, healthy machine).
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// One-port or multi-port nodes.
    pub fn port(mut self, port: PortModel) -> Self {
        self.cfg.port = port;
        self
    }

    /// Message cost parameters `t_s`, `t_w`.
    pub fn costs(mut self, cost: CostParams) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Local GEMM kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.cfg.kernel = kernel;
        self
    }

    /// Record a per-message event trace.
    pub fn traced(mut self, traced: bool) -> Self {
        self.cfg.traced = traced;
        self
    }

    /// Port-charging policy.
    pub fn charge(mut self, charge: ChargePolicy) -> Self {
        self.cfg.charge = charge;
        self
    }

    /// Physical link topology.
    pub fn links(mut self, links: LinkTopology) -> Self {
        self.cfg.links = links;
        self
    }

    /// Deterministic fault injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> MachineConfig {
        self.cfg
    }
}

/// Outcome of a distributed multiplication run.
#[derive(Debug)]
pub struct RunResult {
    /// The assembled product matrix `C = A·B`.
    pub c: Matrix,
    /// Virtual-time and traffic statistics of the run.
    pub stats: RunStats,
    /// Per-node event traces (empty unless `MachineConfig::traced`).
    pub traces: Vec<Vec<cubemm_simnet::TraceEvent>>,
}

impl RunResult {
    /// Elapsed virtual communication time of the run.
    pub fn elapsed(&self) -> f64 {
        self.stats.elapsed
    }
}

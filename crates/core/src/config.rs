//! System configuration — Table 1 of the paper, plus run control.

use simkernel::SimDuration;
use std::fmt;

/// Whether cohorts of a transaction run one-after-another or all at
/// once (§4.1: "cohorts in a sequential transaction execute one after
/// another, whereas cohorts in a parallel transaction are started
/// together and execute independently until commit time").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransType {
    /// All cohorts started together (the paper's default in §5.2–5.7).
    Parallel,
    /// Cohorts execute one after another (§5.8).
    Sequential,
}

/// Physical-resource regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceMode {
    /// Normal queueing at CPUs and disks (RC + DC experiments).
    Finite,
    /// "Infinite" resources: service times elapse but nothing ever
    /// queues — isolates pure data contention (DC experiments, §5.3).
    Infinite,
}

/// Fault injection (an extension beyond the paper's no-failure
/// experiments, quantifying §2.4's blocking argument).
///
/// Three fault classes, each driven by the run's deterministic
/// [`simkernel::SimRng`] so a fault schedule is replayable from the
/// seed:
///
/// **Master crashes.** With probability `master_crash_prob`, a master
/// process crashes at its commit point — after collecting votes (and,
/// for 3PC, the precommit round), before announcing the decision. This
/// is the classic blocking window:
///
/// * **blocking protocols** (2PC, PA, PC): the prepared cohorts hold
///   their update locks until the master recovers `recovery_time`
///   later — "cascading blocking" spreads from those locks;
/// * **3PC**: after `detection_timeout` the surviving cohorts elect the
///   lowest-site cohort as coordinator, exchange state, and terminate
///   the transaction themselves (all cohorts are precommitted at this
///   crash point, so the termination rule decides commit).
///
/// **Cohort crashes.** With probability `cohort_crash_prob`, a cohort
/// crashes right after forcing its prepare (or precommit) record,
/// before its vote (or precommit ack) reaches the master. The master
/// waits — it cannot unilaterally decide with a vote outstanding —
/// and `cohort_recovery_time` later the cohort restarts, replays its
/// last forced log record, and rejoins the protocol per the
/// protocol's recovery rule (see `BaseProtocol::recovery_action` in
/// `crates/protocols`): a prepared cohort re-sends its YES vote, a
/// precommitted 3PC cohort re-sends its precommit ack.
///
/// The same die is also rolled once per cohort in the *execution*
/// phase, as the cohort finishes its work but before its WORKDONE
/// leaves. Nothing is on stable storage at that point, so recovery
/// presumes abort and the whole transaction restarts (counted as
/// `aborted_crash` in the report). `exec_crash_prob` tunes this
/// window independently — `Some(0.0)` pins crashes to the replay
/// points only, `None` follows `cohort_crash_prob`.
///
/// **Message loss.** With probability `msg_loss_prob`, a remote
/// commit-choreography message is lost in transit — in *either*
/// direction: the master's requests (PREPARE, PRECOMMIT, the
/// decision) and the cohorts' replies (WORKDONE, votes, precommit
/// acks, ACKs) all roll the same loss die. Each request arms an
/// end-to-end timer on the requesting side (the cohort owns the
/// WORKDONE timer); it refires every `msg_timeout` until the awaited
/// reply is receipted, so a repeated request also re-elicits a reply
/// whose first copy was the lost leg. After `max_retransmits`
/// attempts the transfer escalates to a reliable out-of-band path
/// (modelling the cooperative termination protocol / operator
/// recovery) — the escalated attempt and its reply are loss-exempt —
/// so the run always terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureConfig {
    /// Probability that a committing master crashes at its decision
    /// point.
    pub master_crash_prob: f64,
    /// Time for the cohorts to detect the crash and start the 3PC
    /// termination protocol.
    pub detection_timeout: SimDuration,
    /// Time until a crashed master recovers and resumes the protocol
    /// (blocking protocols wait this long).
    pub recovery_time: SimDuration,
    /// Probability that a cohort crashes right after forcing its
    /// prepare (or, for 3PC, precommit) record, before answering the
    /// master.
    pub cohort_crash_prob: f64,
    /// Time until a crashed cohort restarts and replays its log.
    pub cohort_recovery_time: SimDuration,
    /// Probability of the execution-phase crash window (cohort dies
    /// before its WORKDONE; recovery presumes abort and the
    /// transaction restarts). `None` follows `cohort_crash_prob`.
    pub exec_crash_prob: Option<f64>,
    /// Probability that a remote commit-choreography message — a
    /// master request (PREPARE / PRECOMMIT / decision) or a cohort
    /// reply (WORKDONE / vote / precommit ack / ACK) — is lost in
    /// transit.
    pub msg_loss_prob: f64,
    /// Sender-side timeout before a loss-eligible message is
    /// retransmitted.
    pub msg_timeout: SimDuration,
    /// Retransmissions attempted before escalating to the reliable
    /// out-of-band path.
    pub max_retransmits: u32,
    /// Restrict *cohort* crashes to sites of one topology region —
    /// the correlated-failure model (a WAN region losing power takes
    /// down every cohort it hosts, while remote regions stay up).
    /// Requires a [`Topology`]; `None` lets every site roll the
    /// cohort-crash die.
    pub crash_region: Option<usize>,
}

impl FailureConfig {
    /// The `key=value` vocabulary accepted by [`std::str::FromStr`], as
    /// `(key=SHAPE, description)` pairs. This table is the single
    /// source of truth: the parser derives its unknown-key error from
    /// it and the CLI usage text renders it verbatim, so the two can
    /// never drift apart. Defaults in parentheses are those of
    /// [`FailureConfig::default`].
    pub const CLI_KEYS: [(&'static str, &'static str); 10] = [
        ("mc=P", "master crash probability"),
        ("cc=P", "cohort crash probability"),
        (
            "exec-cc=P",
            "execution-phase cohort crash probability (follows cc)",
        ),
        ("loss=P", "message loss probability"),
        ("detect-ms=MS", "3PC crash-detection timeout (300)"),
        ("recover-ms=MS", "master recovery time (5000)"),
        ("cohort-recover-ms=MS", "cohort recovery time (1000)"),
        ("retry-ms=MS", "retransmission timeout (100)"),
        ("retries=N", "max retransmissions (3)"),
        (
            "crash-region=R",
            "confine cohort crashes to topology region R",
        ),
    ];

    /// The bare key names from [`Self::CLI_KEYS`], comma-joined — the
    /// vocabulary listed in unknown-key errors.
    fn known_keys() -> String {
        Self::CLI_KEYS
            .iter()
            .map(|(k, _)| k.split('=').next().unwrap_or(k))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Master crashes only, matching the pre-existing single-fault
    /// model: crash probability `p`, 300 ms detection timeout, 5 s
    /// recovery. Cohort-crash and message-loss probabilities are zero.
    pub fn master_crashes(p: f64) -> Self {
        FailureConfig {
            master_crash_prob: p,
            ..Self::default()
        }
    }
}

/// Parse a millisecond value from outside the program — a `--faults`
/// or `--topology` key, or a CLI flag — through
/// [`SimDuration::try_from_millis_f64`]. Errors name `key` and say
/// why the value was refused.
pub fn parse_millis(key: &str, val: &str) -> Result<SimDuration, String> {
    let ms: f64 = val
        .parse()
        .map_err(|_| format!("{key}: cannot parse {val:?}"))?;
    SimDuration::try_from_millis_f64(ms).ok_or_else(|| {
        format!(
            "{key}: {val:?} is not a duration in [0, {}] ms",
            SimDuration::MAX_INPUT_MILLIS
        )
    })
}

impl std::str::FromStr for FailureConfig {
    type Err = String;

    /// Parse a comma-separated `key=value` failure specification over
    /// [`FailureConfig::default`] — the format the CLI's `--faults`
    /// flag takes. Keys are listed in [`FailureConfig::CLI_KEYS`];
    /// unspecified keys keep their defaults.
    ///
    /// ```
    /// use distdb::config::FailureConfig;
    /// let f: FailureConfig = "mc=0.01,loss=0.02,retries=2".parse().unwrap();
    /// assert_eq!(f.master_crash_prob, 0.01);
    /// assert_eq!(f.max_retransmits, 2);
    /// assert_eq!(f.cohort_crash_prob, 0.0); // default preserved
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut f = FailureConfig::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((key, val)) = part.split_once('=') else {
                return Err(format!("expected key=value, got {part:?}"));
            };
            let num = |out: &mut f64| -> Result<(), String> {
                *out = val
                    .parse()
                    .map_err(|_| format!("{key}: cannot parse {val:?}"))?;
                Ok(())
            };
            match key {
                "mc" => num(&mut f.master_crash_prob)?,
                "cc" => num(&mut f.cohort_crash_prob)?,
                "exec-cc" => {
                    f.exec_crash_prob = Some(
                        val.parse()
                            .map_err(|_| format!("{key}: cannot parse {val:?}"))?,
                    )
                }
                "loss" => num(&mut f.msg_loss_prob)?,
                "detect-ms" => f.detection_timeout = parse_millis(key, val)?,
                "recover-ms" => f.recovery_time = parse_millis(key, val)?,
                "cohort-recover-ms" => f.cohort_recovery_time = parse_millis(key, val)?,
                "retry-ms" => f.msg_timeout = parse_millis(key, val)?,
                "retries" => {
                    f.max_retransmits = val
                        .parse()
                        .map_err(|_| format!("{key}: cannot parse {val:?}"))?
                }
                "crash-region" => {
                    f.crash_region = Some(
                        val.parse()
                            .map_err(|_| format!("{key}: cannot parse {val:?}"))?,
                    )
                }
                other => return Err(format!("unknown key {other:?} ({})", Self::known_keys())),
            }
        }
        Ok(f)
    }
}

impl Default for FailureConfig {
    /// All fault probabilities zero, with the timing constants used
    /// throughout the failure test suite: 300 ms detection timeout,
    /// 5 s master recovery, 1 s cohort recovery, 100 ms message
    /// timeout, 3 retransmissions.
    fn default() -> Self {
        FailureConfig {
            master_crash_prob: 0.0,
            detection_timeout: SimDuration::from_millis(300),
            recovery_time: SimDuration::from_secs(5),
            cohort_crash_prob: 0.0,
            cohort_recovery_time: SimDuration::from_secs(1),
            exec_crash_prob: None,
            msg_loss_prob: 0.0,
            msg_timeout: SimDuration::from_millis(100),
            max_retransmits: 3,
            crash_region: None,
        }
    }
}

/// Skewed ("hot spot") page access, the classic b–c rule: a fraction
/// `access_fraction` of accesses target the first `data_fraction` of
/// each site's pages (e.g. 0.8/0.2 for an 80–20 workload). `None`
/// reproduces the paper's uniform accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSpot {
    /// Fraction of each site's pages forming the hot region (0, 1).
    pub data_fraction: f64,
    /// Fraction of accesses that hit the hot region (0, 1).
    pub access_fraction: f64,
}

/// Zipf-skewed page access: within a site, page rank `k` (0-based) is
/// drawn with probability ∝ `1 / (k + 1)^theta`. `theta = 0` is
/// uniform; production key distributions are typically quoted around
/// `theta ≈ 0.8–1.2`. Mutually exclusive with [`HotSpot`] — both
/// model skew, one rule at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    /// Skew exponent θ ≥ 0.
    pub theta: f64,
}

/// Site-pair wire topology: sites are partitioned into contiguous
/// regions; messages inside a region travel at the LAN latency class,
/// messages between regions at the WAN class, each with a per-pair
/// deterministic jitter. The degenerate default (1 region, zero
/// latencies) reproduces the paper's instantaneous-switch network
/// exactly — same event sequence, byte-identical reports.
///
/// Wire latency is pure in-flight delay: it adds no messages and no
/// CPU cost, so the Tables 3–4 per-commit overhead counts are
/// unchanged under any topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of regions; sites are split into contiguous blocks
    /// (`region_of` is a pure function of the site index, independent
    /// of the seed).
    pub regions: usize,
    /// One-way wire latency between sites of the same region.
    pub lan_latency: SimDuration,
    /// One-way wire latency between sites of different regions.
    pub wan_latency: SimDuration,
    /// Per-pair latency jitter: each unordered site pair scales its
    /// class mean by a factor drawn uniformly from
    /// `[1 − jitter, 1 + jitter]`, fixed for the whole run.
    pub jitter: f64,
    /// Probability that a distributed transaction's remote cohort set
    /// is forced to include site 0 — the "hot site" that concentrates
    /// mastership traffic (0 disables).
    pub hot_site_prob: f64,
}

impl Default for Topology {
    /// Degenerate flat network: 1 region, zero latencies, no jitter,
    /// no hot site — byte-identical to no topology at all.
    fn default() -> Self {
        Topology {
            regions: 1,
            lan_latency: SimDuration::ZERO,
            wan_latency: SimDuration::ZERO,
            jitter: 0.0,
            hot_site_prob: 0.0,
        }
    }
}

impl Topology {
    /// The `key=value` vocabulary accepted by [`std::str::FromStr`]
    /// (the CLI's `--topology` flag), as `(key=SHAPE, description)`
    /// pairs — same single-source-of-truth contract as
    /// [`FailureConfig::CLI_KEYS`]. Defaults in parentheses.
    pub const CLI_KEYS: [(&'static str, &'static str); 5] = [
        ("regions=N", "number of contiguous site regions (1)"),
        ("lan-ms=MS", "intra-region one-way wire latency (0)"),
        ("wan-ms=MS", "inter-region one-way wire latency (0)"),
        ("jitter=F", "per-pair latency jitter fraction in [0,1) (0)"),
        (
            "hot=P",
            "probability a txn's cohort set includes site 0 (0)",
        ),
    ];

    /// The bare key names from [`Self::CLI_KEYS`], comma-joined.
    fn known_keys() -> String {
        Self::CLI_KEYS
            .iter()
            .map(|(k, _)| k.split('=').next().unwrap_or(k))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Region of `site` among `num_sites`: contiguous blocks, first
    /// regions padded when the division is uneven. Pure arithmetic —
    /// no seed involved — so region assignment can never drift between
    /// the workload generator, the engine, and the reports.
    pub fn region_of(&self, site: usize, num_sites: usize) -> usize {
        debug_assert!(site < num_sites);
        site * self.regions / num_sites
    }

    /// Build the symmetric `num_sites × num_sites` wire-latency matrix
    /// (row-major, diagonal zero). Jitter factors are drawn per
    /// unordered pair from a dedicated RNG stream derived from `seed`,
    /// independent of the engine's main stream — adding a topology
    /// never perturbs workload or fault draws.
    pub fn latency_matrix(&self, num_sites: usize, seed: u64) -> Vec<SimDuration> {
        // Stream tag "TOPO", disjoint from every cell_seed stream.
        let mut rng = simkernel::SimRng::new(simkernel::mix_seed(seed, 0x544f_504f, 0, 0));
        let mut m = vec![SimDuration::ZERO; num_sites * num_sites];
        for i in 0..num_sites {
            for j in (i + 1)..num_sites {
                let base = if self.region_of(i, num_sites) == self.region_of(j, num_sites) {
                    self.lan_latency
                } else {
                    self.wan_latency
                };
                let lat = if self.jitter > 0.0 {
                    let f = 1.0 - self.jitter + 2.0 * self.jitter * rng.f64();
                    SimDuration::from_micros((base.as_micros() as f64 * f).round() as u64)
                } else {
                    base
                };
                m[i * num_sites + j] = lat;
                m[j * num_sites + i] = lat;
            }
        }
        m
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    /// Parse a comma-separated `key=value` topology specification over
    /// [`Topology::default`] — the format the CLI's `--topology` flag
    /// takes. Keys are listed in [`Topology::CLI_KEYS`]; unspecified
    /// keys keep their defaults.
    ///
    /// ```
    /// use distdb::config::Topology;
    /// let t: Topology = "regions=4,wan-ms=40,jitter=0.1".parse().unwrap();
    /// assert_eq!(t.regions, 4);
    /// assert_eq!(t.wan_latency.as_micros(), 40_000);
    /// assert_eq!(t.hot_site_prob, 0.0); // default preserved
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut t = Topology::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((key, val)) = part.split_once('=') else {
                return Err(format!("expected key=value, got {part:?}"));
            };
            let num = |out: &mut f64| -> Result<(), String> {
                *out = val
                    .parse()
                    .map_err(|_| format!("{key}: cannot parse {val:?}"))?;
                Ok(())
            };
            match key {
                "regions" => {
                    t.regions = val
                        .parse()
                        .map_err(|_| format!("{key}: cannot parse {val:?}"))?
                }
                "lan-ms" => t.lan_latency = parse_millis(key, val)?,
                "wan-ms" => t.wan_latency = parse_millis(key, val)?,
                "jitter" => num(&mut t.jitter)?,
                "hot" => num(&mut t.hot_site_prob)?,
                other => return Err(format!("unknown key {other:?} ({})", Self::known_keys())),
            }
        }
        Ok(t)
    }
}

/// How long an aborted transaction waits before its restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// The paper's heuristic (§4): "the length of the delay is equal to
    /// the average transaction response time" — an adaptive backoff
    /// that throttles data contention as the system loads up.
    AdaptiveResponseTime,
    /// A fixed delay (for ablations of the heuristic).
    Fixed(SimDuration),
    /// Restart immediately (no backoff at all).
    Immediate,
}

/// Run-length control for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Transactions committed before statistics start (steady-state
    /// warm-up).
    pub warmup_transactions: u64,
    /// Transactions committed inside the measurement window. The paper
    /// runs "until at least 50 000 transactions were processed"; the
    /// bench harness defaults much lower and offers a full mode.
    pub measured_transactions: u64,
    /// Batches for the batch-means throughput confidence interval.
    pub batches: u64,
    /// Hard safety cap on simulated time (a thrashing configuration
    /// might otherwise take unbounded wall-clock time to commit the
    /// requested count). `None` disables the cap.
    pub max_sim_time: Option<simkernel::SimTime>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_transactions: 500,
            measured_transactions: 5_000,
            batches: 10,
            max_sim_time: Some(simkernel::SimTime::from_secs(40_000)),
        }
    }
}

/// The full parameter set of the simulation model (Table 1) plus the
/// experiment toggles introduced in §5.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// `NumSites` — number of sites in the database.
    pub num_sites: usize,
    /// `DBSize` — number of pages in the database (total, uniformly
    /// distributed across sites).
    pub db_size: u64,
    /// `MPL` — transaction multiprogramming level per site.
    pub mpl: u32,
    /// `TransType` — sequential or parallel cohort execution.
    pub trans_type: TransType,
    /// `DistDegree` — number of cohorts per transaction (master site
    /// included).
    pub dist_degree: u32,
    /// `CohortSize` — mean pages accessed per cohort; actual counts
    /// are uniform over `[0.5, 1.5] × CohortSize`.
    pub cohort_size: u32,
    /// `UpdateProb` — probability that an accessed page is updated.
    pub update_prob: f64,
    /// Optional access skew; `None` (the paper's setting) draws pages
    /// uniformly.
    pub hot_spot: Option<HotSpot>,
    /// Optional Zipf(θ) access skew; mutually exclusive with
    /// `hot_spot`. `None` (the paper's setting) draws pages uniformly.
    pub zipf: Option<Zipf>,
    /// Optional site-pair wire topology (LAN/WAN latency classes,
    /// regions, hot site). `None` reproduces the paper's
    /// instantaneous-switch network.
    pub topology: Option<Topology>,
    /// `NumCPUs` — processors per site (single shared queue).
    pub num_cpus: u32,
    /// `NumDataDisks` — data disks per site (one queue each).
    pub num_data_disks: u32,
    /// `NumLogDisks` — log disks per site (one queue each).
    pub num_log_disks: u32,
    /// `PageCPU` — CPU time to process one data page.
    pub page_cpu: SimDuration,
    /// `PageDisk` — disk time for one page access (also the cost of a
    /// forced log write, §4.3).
    pub page_disk: SimDuration,
    /// `MsgCPU` — CPU time to send *or* receive one message.
    pub msg_cpu: SimDuration,
    /// Finite (RC+DC) or infinite (pure DC) resources.
    pub resources: ResourceMode,
    /// Probability that a cohort votes NO on PREPARE ("surprise
    /// aborts", §5.7). 0 in the baseline experiments.
    pub cohort_abort_prob: f64,
    /// Master-failure injection; `None` reproduces the paper's
    /// no-failure experiments.
    pub failures: Option<FailureConfig>,
    /// Restart backoff for aborted transactions (the paper uses the
    /// adaptive mean-response-time heuristic; the alternatives exist
    /// for the ablation benchmarks).
    pub restart_policy: RestartPolicy,
    /// Group commit (§3.2): when `Some(k)`, each log disk serves up to
    /// `k` queued forced writes together in a single `PageDisk`
    /// service, "batched together to save on disk I/O". Individual
    /// writes may wait for the batch in front of them, so this trades
    /// latency for log throughput — and lengthens the prepared state,
    /// which is exactly where OPT lending helps (§3.2 notes OPT is
    /// "especially attractive" combined with group commit). Ignored
    /// under infinite resources (nothing ever queues there).
    pub group_commit_batch: Option<u32>,
    /// Enable the Read-Only commit optimization (§3.2): a cohort that
    /// updated nothing answers PREPARE with a READ vote, releases its
    /// locks, forces no records and drops out of phase two; a
    /// transaction whose cohorts are all read-only commits in one
    /// phase. Off in the paper's experiments (its workloads are fully
    /// update-oriented).
    pub read_only_optimization: bool,
    /// Charge the asynchronous post-commit writes of updated pages to
    /// the data disks (§4.1 says the writes happen asynchronously after
    /// commit; this flag controls whether their disk time is modeled).
    pub model_deferred_writes: bool,
    /// Replication degree F for the replicated commit family (Paxos
    /// Commit / replicated-coordinator 2PC): each transaction's
    /// decision is maintained by a group of 2F+1 replicas on
    /// consecutive sites starting at the master's, tolerating F
    /// simultaneous replica failures. 0 — the classic single-copy
    /// protocols — degenerates Paxos Commit to plain 2PC. Ignored by
    /// (and rejected for) non-replicated protocols when positive.
    pub replication: u32,
    /// Run-length control.
    pub run: RunConfig,
}

impl SystemConfig {
    /// The reconstructed Table 2 baseline (see DESIGN.md §2.1): 8
    /// sites, 1000 pages/site, parallel transactions over 3 sites with
    /// 6 pages per cohort, all updates, 1 CPU + 2 data disks + 1 log
    /// disk per site, `PageCPU` 5 ms, `PageDisk` 20 ms, `MsgCPU` 5 ms.
    ///
    /// `DBSize` is calibrated so that the data-contention knee falls at
    /// MPL ≈ 4–5 exactly as in the paper's figures, with the system
    /// I/O-bound but "not heavily" (§5.2) so message CPU costs matter.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            num_sites: 8,
            db_size: 8_000,
            mpl: 4,
            trans_type: TransType::Parallel,
            dist_degree: 3,
            cohort_size: 6,
            update_prob: 1.0,
            hot_spot: None,
            zipf: None,
            topology: None,
            num_cpus: 1,
            num_data_disks: 2,
            num_log_disks: 1,
            page_cpu: SimDuration::from_millis(5),
            page_disk: SimDuration::from_millis(20),
            msg_cpu: SimDuration::from_millis(5),
            resources: ResourceMode::Finite,
            cohort_abort_prob: 0.0,
            failures: None,
            restart_policy: RestartPolicy::AdaptiveResponseTime,
            group_commit_batch: None,
            read_only_optimization: false,
            model_deferred_writes: false,
            replication: 0,
            run: RunConfig::default(),
        }
    }

    /// The pure data-contention variant of the baseline (§5.3):
    /// identical except resources are infinite.
    pub fn pure_data_contention() -> Self {
        SystemConfig {
            resources: ResourceMode::Infinite,
            ..Self::paper_baseline()
        }
    }

    /// Experiment 4's higher degree of distribution (§5.5): 6 cohorts
    /// of 3 pages each, keeping the 18-page mean transaction length.
    pub fn higher_distribution(&self) -> Self {
        SystemConfig {
            dist_degree: 6,
            cohort_size: 3,
            ..self.clone()
        }
    }

    /// Experiment 3's fast network interface (§5.4): `MsgCPU` = 1 ms.
    pub fn fast_network(&self) -> Self {
        SystemConfig {
            msg_cpu: SimDuration::from_millis(1),
            ..self.clone()
        }
    }

    /// Set the multiprogramming level. Chainable builder form of the
    /// public `mpl` field, for config pipelines that start from a
    /// preset: `SystemConfig::paper_baseline().with_mpl(4)`.
    #[must_use]
    pub fn with_mpl(mut self, mpl: u32) -> Self {
        self.mpl = mpl;
        self
    }

    /// Set the run length: `warmup` transactions before statistics
    /// start, then `measured` transactions in the measurement window.
    #[must_use]
    pub fn with_run_length(mut self, warmup: u64, measured: u64) -> Self {
        self.run.warmup_transactions = warmup;
        self.run.measured_transactions = measured;
        self
    }

    /// Set the database size in pages (spread uniformly across sites).
    #[must_use]
    pub fn with_db_size(mut self, pages: u64) -> Self {
        self.db_size = pages;
        self
    }

    /// Set the page update probability.
    #[must_use]
    pub fn with_update_prob(mut self, p: f64) -> Self {
        self.update_prob = p;
        self
    }

    /// Set the transaction shape: `dist_degree` cohorts of
    /// `cohort_size` mean pages each.
    #[must_use]
    pub fn with_shape(mut self, dist_degree: u32, cohort_size: u32) -> Self {
        self.dist_degree = dist_degree;
        self.cohort_size = cohort_size;
        self
    }

    /// Enable the failure model with the given fault configuration.
    #[must_use]
    pub fn with_failures(mut self, failures: FailureConfig) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Set the cohort surprise NO-vote probability (§5.7).
    #[must_use]
    pub fn with_cohort_abort_prob(mut self, p: f64) -> Self {
        self.cohort_abort_prob = p;
        self
    }

    /// Enable or disable the Read-Only commit optimization (§3.2).
    #[must_use]
    pub fn with_read_only_optimization(mut self, on: bool) -> Self {
        self.read_only_optimization = on;
        self
    }

    /// Set sequential or parallel cohort execution.
    #[must_use]
    pub fn with_trans_type(mut self, t: TransType) -> Self {
        self.trans_type = t;
        self
    }

    /// Set the number of data disks per site.
    #[must_use]
    pub fn with_data_disks(mut self, n: u32) -> Self {
        self.num_data_disks = n;
        self
    }

    /// Enable Zipf(θ) page-access skew.
    #[must_use]
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.zipf = Some(Zipf { theta });
        self
    }

    /// Install a site-pair wire topology.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Set the replication degree F (2F+1 decision replicas per
    /// transaction) for the replicated commit family.
    #[must_use]
    pub fn with_replication(mut self, f: u32) -> Self {
        self.replication = f;
        self
    }

    /// Pages per site (`DBSize / NumSites`; validation requires the
    /// division to be exact).
    pub fn pages_per_site(&self) -> u64 {
        self.db_size / self.num_sites as u64
    }

    /// Largest possible cohort access-list length.
    pub fn max_cohort_pages(&self) -> u64 {
        (self.cohort_size + self.cohort_size / 2).max(1) as u64
    }

    /// Check the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError::*;
        if self.num_sites == 0 {
            return Err(Invalid("num_sites must be positive"));
        }
        if self.mpl == 0 {
            return Err(Invalid("mpl must be positive"));
        }
        if self.dist_degree == 0 {
            return Err(Invalid("dist_degree must be positive"));
        }
        if self.dist_degree as usize > self.num_sites {
            return Err(Invalid("dist_degree cannot exceed num_sites"));
        }
        if self.cohort_size == 0 {
            return Err(Invalid("cohort_size must be positive"));
        }
        if !self.db_size.is_multiple_of(self.num_sites as u64) {
            return Err(Invalid("db_size must divide evenly across sites"));
        }
        if self.pages_per_site() < self.max_cohort_pages() {
            return Err(Invalid("a site must hold at least 1.5 * cohort_size pages"));
        }
        if !(0.0..=1.0).contains(&self.update_prob) {
            return Err(Invalid("update_prob must be a probability"));
        }
        if !(0.0..=1.0).contains(&self.cohort_abort_prob) {
            return Err(Invalid("cohort_abort_prob must be a probability"));
        }
        if self.num_cpus == 0 || self.num_data_disks == 0 || self.num_log_disks == 0 {
            return Err(Invalid(
                "each site needs at least one CPU, data disk and log disk",
            ));
        }
        if self.group_commit_batch == Some(0) {
            return Err(Invalid("group commit batch size must be positive"));
        }
        if let Some(h) = &self.hot_spot {
            if !(h.data_fraction > 0.0 && h.data_fraction < 1.0) {
                return Err(Invalid("hot-spot data_fraction must be in (0, 1)"));
            }
            if !(h.access_fraction > 0.0 && h.access_fraction < 1.0) {
                return Err(Invalid("hot-spot access_fraction must be in (0, 1)"));
            }
            let hot_pages = (self.pages_per_site() as f64 * h.data_fraction) as u64;
            if hot_pages < self.max_cohort_pages() {
                return Err(Invalid(
                    "hot region too small to hold one cohort's accesses",
                ));
            }
        }
        if let Some(z) = &self.zipf {
            if self.hot_spot.is_some() {
                return Err(Invalid("zipf and hot-spot skew are mutually exclusive"));
            }
            if !z.theta.is_finite() || z.theta < 0.0 {
                return Err(Invalid("zipf theta must be finite and non-negative"));
            }
            if zipf_tail_mass(self.pages_per_site(), self.max_cohort_pages() - 1, z.theta)
                < MIN_ZIPF_TAIL_MASS
            {
                return Err(Invalid(
                    "--zipf: theta too skewed: under 1e-4 of a site's accesses fall outside \
                     its 1.5 * cohort_size - 1 hottest pages, so a cohort's distinct pages \
                     cannot be drawn",
                ));
            }
        }
        if let Some(t) = &self.topology {
            if t.regions == 0 {
                return Err(Invalid("topology regions must be positive"));
            }
            if t.regions > self.num_sites {
                return Err(Invalid("topology regions cannot exceed num_sites"));
            }
            if !(0.0..1.0).contains(&t.jitter) {
                return Err(Invalid("topology jitter must be in [0, 1)"));
            }
            if !(0.0..=1.0).contains(&t.hot_site_prob) {
                return Err(Invalid(
                    "topology hot-site probability must be a probability",
                ));
            }
        }
        if let Some(f) = &self.failures {
            if !(0.0..=1.0).contains(&f.master_crash_prob) {
                return Err(Invalid("master_crash_prob must be a probability"));
            }
            if f.recovery_time.is_zero() {
                return Err(Invalid("recovery_time must be positive"));
            }
            if !(0.0..=1.0).contains(&f.cohort_crash_prob) {
                return Err(Invalid("cohort_crash_prob must be a probability"));
            }
            if f.cohort_crash_prob > 0.0 && f.cohort_recovery_time.is_zero() {
                return Err(Invalid("cohort_recovery_time must be positive"));
            }
            if !(0.0..=1.0).contains(&f.msg_loss_prob) {
                return Err(Invalid("msg_loss_prob must be a probability"));
            }
            if f.msg_loss_prob > 0.0 && f.msg_timeout.is_zero() {
                return Err(Invalid("msg_timeout must be positive"));
            }
            if let Some(r) = f.crash_region {
                let Some(t) = &self.topology else {
                    return Err(Invalid("crash-region requires a topology"));
                };
                if r >= t.regions {
                    return Err(Invalid("crash-region must name an existing region"));
                }
            }
        }
        if self.run.measured_transactions == 0 {
            return Err(Invalid("measured_transactions must be positive"));
        }
        if (self.run.warmup_transactions)
            .checked_add(self.run.measured_transactions)
            .is_none()
        {
            return Err(Invalid(
                "--warmup: warm-up plus measured transactions overflow a 64-bit count",
            ));
        }
        let replicas = 2 * self.replication as u128 + 1;
        let pending = self.num_sites as u128
            * self.mpl as u128
            * (self.dist_degree as u128 + 1)
            * replicas
            * EVENTS_PER_PARTICIPANT;
        if pending > MAX_PENDING_EVENTS as u128 {
            return Err(Invalid(
                "--mpl: the closed population (sites * mpl) could have more events \
                 pending than the event calendar's 2^24 slots",
            ));
        }
        if self.run.batches < 2 {
            return Err(Invalid(
                "at least two batches are needed for a confidence interval",
            ));
        }
        Ok(())
    }
}

/// The event calendar's capacity: simultaneously pending events are
/// addressed by 24-bit slots.
const MAX_PENDING_EVENTS: u64 = 1 << 24;

/// Events one participant of a transaction (its master or one cohort,
/// per decision replica) can have pending at once, at most: a service
/// completion, a message in flight, its retransmission timer and a
/// crash-recovery timer. `validate` bounds the closed population by
/// `MAX_PENDING_EVENTS` with it.
const EVENTS_PER_PARTICIPANT: u128 = 4;

/// The least share of a site's Zipf access mass that must fall outside
/// its `max_cohort_pages - 1` hottest pages. Below it, the rejection
/// draw of a cohort's distinct pages practically never finds its last
/// page (at θ = 12 it would take ~10^11 draws).
const MIN_ZIPF_TAIL_MASS: f64 = 1e-4;

/// Zipf(θ) probability mass beyond the `head` most popular of `n` ranks.
fn zipf_tail_mass(n: u64, head: u64, theta: f64) -> f64 {
    let (mut head_mass, mut tail_mass) = (0.0, 0.0);
    for k in 1..=n {
        let w = (k as f64).powf(-theta);
        if k <= head {
            head_mass += w;
        } else {
            tail_mass += w;
        }
    }
    tail_mass / (head_mass + tail_mass)
}

/// Configuration validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter (combination) is out of range; the message says which.
    Invalid(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Invalid(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "NumSites      {}", self.num_sites)?;
        writeln!(
            f,
            "DBSize        {} pages ({}/site)",
            self.db_size,
            self.pages_per_site()
        )?;
        writeln!(f, "MPL           {} / site", self.mpl)?;
        writeln!(f, "TransType     {:?}", self.trans_type)?;
        writeln!(f, "DistDegree    {}", self.dist_degree)?;
        writeln!(f, "CohortSize    {} pages", self.cohort_size)?;
        writeln!(f, "UpdateProb    {}", self.update_prob)?;
        writeln!(f, "NumCPUs       {} / site", self.num_cpus)?;
        writeln!(f, "NumDataDisks  {} / site", self.num_data_disks)?;
        writeln!(f, "NumLogDisks   {} / site", self.num_log_disks)?;
        writeln!(f, "PageCPU       {}", self.page_cpu)?;
        writeln!(f, "PageDisk      {}", self.page_disk)?;
        writeln!(f, "MsgCPU        {}", self.msg_cpu)?;
        writeln!(f, "Resources     {:?}", self.resources)?;
        if self.cohort_abort_prob > 0.0 {
            writeln!(f, "CohortAbortP  {}", self.cohort_abort_prob)?;
        }
        if self.replication > 0 {
            writeln!(
                f,
                "Replication   F={} ({} replicas)",
                self.replication,
                2 * self.replication + 1
            )?;
        }
        if let Some(z) = &self.zipf {
            writeln!(f, "Zipf          theta={}", z.theta)?;
        }
        if let Some(t) = &self.topology {
            writeln!(
                f,
                "Topology      {} regions, lan={}, wan={}, jitter={}, hot={}",
                t.regions, t.lan_latency, t.wan_latency, t.jitter, t.hot_site_prob
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        SystemConfig::paper_baseline().validate().unwrap();
        SystemConfig::pure_data_contention().validate().unwrap();
        SystemConfig::paper_baseline()
            .higher_distribution()
            .validate()
            .unwrap();
        SystemConfig::paper_baseline()
            .fast_network()
            .validate()
            .unwrap();
    }

    #[test]
    fn baseline_matches_paper_prose() {
        let c = SystemConfig::paper_baseline();
        // §5.2: three sites, six pages per cohort, 1 CPU, 2 data disks,
        // 1 log disk per site; §5.4: slow network is 5 ms.
        assert_eq!(c.dist_degree, 3);
        assert_eq!(c.cohort_size, 6);
        assert_eq!(c.num_cpus, 1);
        assert_eq!(c.num_data_disks, 2);
        assert_eq!(c.num_log_disks, 1);
        assert_eq!(c.msg_cpu, SimDuration::from_millis(5));
        assert_eq!(c.trans_type, TransType::Parallel);
        assert_eq!(c.update_prob, 1.0);
    }

    #[test]
    fn higher_distribution_keeps_transaction_length() {
        let base = SystemConfig::paper_baseline();
        let hd = base.higher_distribution();
        assert_eq!(
            base.dist_degree * base.cohort_size,
            hd.dist_degree * hd.cohort_size,
            "mean transaction length must stay 18 pages"
        );
    }

    #[test]
    fn fast_network_is_five_times_faster() {
        let base = SystemConfig::paper_baseline();
        let fast = base.fast_network();
        assert_eq!(base.msg_cpu.as_micros(), 5 * fast.msg_cpu.as_micros());
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = SystemConfig::paper_baseline();
        c.dist_degree = 9;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.db_size = 1_601; // not divisible by 8
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.update_prob = 1.5;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.mpl = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.db_size = 64; // 8 pages/site < 9 max cohort pages
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.run.batches = 1;
        assert!(c.validate().is_err());

        // Skew so extreme that a cohort's distinct pages cannot be
        // drawn: the rejection loop would never finish.
        for theta in [6.0, 12.0, 1e308] {
            let c = SystemConfig::paper_baseline().with_zipf(theta);
            let e = c.validate().unwrap_err().to_string();
            assert!(e.contains("--zipf"), "{e}");
        }
        SystemConfig::paper_baseline()
            .with_zipf(4.0)
            .validate()
            .unwrap();

        // A population the calendar's 2^24 slots cannot address.
        let e = SystemConfig::paper_baseline().with_mpl(4_000_000_000);
        assert!(e.validate().unwrap_err().to_string().contains("--mpl"));
        let mut c = SystemConfig::paper_baseline().with_mpl(100_000);
        c.validate().unwrap();
        c.replication = 1; // three decision replicas per participant
        assert!(c.validate().is_err());

        // warmup + measured would wrap the run's commit target.
        let c = SystemConfig::paper_baseline().with_run_length(u64::MAX - 5, 10);
        let e = c.validate().unwrap_err().to_string();
        assert!(e.contains("--warmup"), "{e}");
        SystemConfig::paper_baseline()
            .with_run_length(u64::MAX - 10, 10)
            .validate()
            .unwrap();
    }

    #[test]
    fn rejects_bad_failure_configs() {
        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            cohort_crash_prob: 1.5,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            cohort_crash_prob: 0.1,
            cohort_recovery_time: SimDuration::ZERO,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            msg_loss_prob: -0.1,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            msg_loss_prob: 0.1,
            msg_timeout: SimDuration::ZERO,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        // The all-defaults config (zero probabilities) is valid.
        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig::default());
        c.validate().unwrap();
    }

    #[test]
    fn master_crashes_constructor_sets_only_the_master_prob() {
        let f = FailureConfig::master_crashes(0.05);
        assert_eq!(f.master_crash_prob, 0.05);
        assert_eq!(f.cohort_crash_prob, 0.0);
        assert_eq!(f.msg_loss_prob, 0.0);
        assert_eq!(f.detection_timeout, SimDuration::from_millis(300));
        assert_eq!(f.recovery_time, SimDuration::from_secs(5));
    }

    #[test]
    fn failure_config_parses_every_key() {
        let f: FailureConfig = "mc=0.01,cc=0.005,loss=0.02,detect-ms=200,\
             recover-ms=4000,cohort-recover-ms=800,retry-ms=50,retries=2"
            .parse()
            .unwrap();
        assert_eq!(f.master_crash_prob, 0.01);
        assert_eq!(f.cohort_crash_prob, 0.005);
        assert_eq!(f.msg_loss_prob, 0.02);
        assert_eq!(f.detection_timeout, SimDuration::from_millis(200));
        assert_eq!(f.recovery_time, SimDuration::from_millis(4000));
        assert_eq!(f.cohort_recovery_time, SimDuration::from_millis(800));
        assert_eq!(f.msg_timeout, SimDuration::from_millis(50));
        assert_eq!(f.max_retransmits, 2);
    }

    #[test]
    fn failure_config_parse_keeps_defaults_for_unset_keys() {
        let f: FailureConfig = "mc=0.05".parse().unwrap();
        assert_eq!(f.master_crash_prob, 0.05);
        assert_eq!(f.cohort_crash_prob, 0.0);
        assert_eq!(f.max_retransmits, 3);
        // The empty spec is the default config verbatim.
        assert_eq!(
            "".parse::<FailureConfig>().unwrap(),
            FailureConfig::default()
        );
    }

    #[test]
    fn failure_config_parse_errors_name_the_problem() {
        let e = "bogus=1".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("unknown key \"bogus\""), "{e}");
        // The error lists the vocabulary, sourced from CLI_KEYS.
        for key in ["mc", "cc", "loss", "detect-ms", "retries"] {
            assert!(e.contains(key), "{e} missing {key}");
        }
        let e = "mc".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("expected key=value"), "{e}");
        let e = "mc=x".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("mc: cannot parse \"x\""), "{e}");
        let e = "retries=1.5".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("retries"), "{e}");
        // Millisecond keys refuse what no duration can be, by name.
        for key in ["detect-ms", "recover-ms", "cohort-recover-ms", "retry-ms"] {
            for val in ["-1", "nan", "inf", "1e30"] {
                let e = format!("{key}={val}").parse::<FailureConfig>().unwrap_err();
                assert!(e.starts_with(&format!("{key}: ")), "{e}");
                assert!(e.contains("not a duration"), "{e}");
            }
        }
    }

    #[test]
    fn cli_keys_cover_every_failure_field() {
        // 10 struct fields, 10 documented keys: adding a field without
        // extending the key table fails here.
        assert_eq!(FailureConfig::CLI_KEYS.len(), 10);
        for (key, desc) in FailureConfig::CLI_KEYS {
            assert!(key.contains('='), "{key} lacks a value shape");
            assert!(!desc.is_empty());
        }
    }

    #[test]
    fn crash_region_parses_and_validates() {
        let f: FailureConfig = "cc=0.01,crash-region=2".parse().unwrap();
        assert_eq!(f.crash_region, Some(2));
        assert_eq!(f.cohort_crash_prob, 0.01);

        // crash-region without a topology is rejected.
        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(f);
        assert!(c.validate().is_err());

        // With a 4-region topology, region 2 exists...
        c.topology = Some("regions=4".parse().unwrap());
        c.validate().unwrap();
        // ...but region 4 does not.
        c.failures.as_mut().unwrap().crash_region = Some(4);
        assert!(c.validate().is_err());
    }

    #[test]
    fn zipf_validates() {
        let c = SystemConfig::paper_baseline().with_zipf(0.9);
        c.validate().unwrap();

        let mut bad = c.clone();
        bad.zipf = Some(Zipf { theta: -0.1 });
        assert!(bad.validate().is_err());
        let mut bad = c.clone();
        bad.zipf = Some(Zipf { theta: f64::NAN });
        assert!(bad.validate().is_err());
        // One skew rule at a time.
        let mut bad = c;
        bad.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 0.8,
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn topology_parses_every_key() {
        let t: Topology = "regions=4,lan-ms=1,wan-ms=40,jitter=0.2,hot=0.3"
            .parse()
            .unwrap();
        assert_eq!(t.regions, 4);
        assert_eq!(t.lan_latency, SimDuration::from_millis(1));
        assert_eq!(t.wan_latency, SimDuration::from_millis(40));
        assert_eq!(t.jitter, 0.2);
        assert_eq!(t.hot_site_prob, 0.3);
        // The empty spec is the degenerate default verbatim.
        assert_eq!("".parse::<Topology>().unwrap(), Topology::default());
    }

    #[test]
    fn topology_parse_errors_name_the_problem() {
        let e = "bogus=1".parse::<Topology>().unwrap_err();
        assert!(e.contains("unknown key \"bogus\""), "{e}");
        for key in ["regions", "lan-ms", "wan-ms", "jitter", "hot"] {
            assert!(e.contains(key), "{e} missing {key}");
        }
        let e = "regions".parse::<Topology>().unwrap_err();
        assert!(e.contains("expected key=value"), "{e}");
        let e = "wan-ms=x".parse::<Topology>().unwrap_err();
        assert!(e.contains("wan-ms: cannot parse \"x\""), "{e}");
        for key in ["lan-ms", "wan-ms"] {
            for val in ["-1", "nan", "inf", "1e30"] {
                let e = format!("regions=4,{key}={val}")
                    .parse::<Topology>()
                    .unwrap_err();
                assert!(e.starts_with(&format!("{key}: ")), "{e}");
                assert!(e.contains("not a duration"), "{e}");
            }
        }
    }

    #[test]
    fn topology_validates() {
        let ok =
            SystemConfig::paper_baseline().with_topology("regions=4,wan-ms=40".parse().unwrap());
        ok.validate().unwrap();

        let mut bad = ok.clone();
        bad.topology.as_mut().unwrap().regions = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.topology.as_mut().unwrap().regions = 9; // > 8 sites
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.topology.as_mut().unwrap().jitter = 1.0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.topology.as_mut().unwrap().hot_site_prob = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn region_assignment_is_contiguous_and_seed_free() {
        let t: Topology = "regions=4".parse().unwrap();
        // Pure function of the site index: exhaustive, monotone,
        // covering every region, identical however often it is asked.
        let n = 256;
        let regions: Vec<usize> = (0..n).map(|s| t.region_of(s, n)).collect();
        assert_eq!(regions[0], 0);
        assert_eq!(regions[n - 1], t.regions - 1);
        assert!(regions.windows(2).all(|w| w[0] <= w[1]), "monotone blocks");
        for r in 0..t.regions {
            assert_eq!(
                regions.iter().filter(|&&x| x == r).count(),
                n / t.regions,
                "even split at an exact division"
            );
        }
    }

    #[test]
    fn latency_matrix_is_symmetric_positive_and_deterministic() {
        let t: Topology = "regions=4,lan-ms=1,wan-ms=40,jitter=0.2".parse().unwrap();
        let n = 64;
        let m = t.latency_matrix(n, 7);
        assert_eq!(m, t.latency_matrix(n, 7), "same seed, same matrix");
        assert_ne!(m, t.latency_matrix(n, 8), "jitter varies with the seed");
        for i in 0..n {
            assert!(m[i * n + i].is_zero(), "diagonal must be zero");
            for j in 0..n {
                assert_eq!(m[i * n + j], m[j * n + i], "symmetry at ({i},{j})");
                if i != j {
                    let lat = m[i * n + j];
                    assert!(!lat.is_zero(), "off-diagonal must be positive");
                    // Jitter keeps every entry within its class band.
                    let (lo, hi) = if t.region_of(i, n) == t.region_of(j, n) {
                        (800, 1_200)
                    } else {
                        (32_000, 48_000)
                    };
                    assert!(
                        (lo..=hi).contains(&lat.as_micros()),
                        "({i},{j}) = {lat} outside class band"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_topology_matrix_is_all_zero() {
        let m = Topology::default().latency_matrix(16, 99);
        assert!(m.iter().all(|d| d.is_zero()));
    }

    #[test]
    fn builders_compose_and_match_field_assignment() {
        let b = SystemConfig::paper_baseline()
            .with_mpl(6)
            .with_run_length(100, 1_000)
            .with_db_size(16_000)
            .with_update_prob(0.5)
            .with_shape(6, 3)
            .with_failures(FailureConfig::master_crashes(0.01))
            .with_cohort_abort_prob(0.02)
            .with_read_only_optimization(true)
            .with_trans_type(TransType::Sequential)
            .with_data_disks(3);
        let mut m = SystemConfig::paper_baseline();
        m.mpl = 6;
        m.run.warmup_transactions = 100;
        m.run.measured_transactions = 1_000;
        m.db_size = 16_000;
        m.update_prob = 0.5;
        m.dist_degree = 6;
        m.cohort_size = 3;
        m.failures = Some(FailureConfig::master_crashes(0.01));
        m.cohort_abort_prob = 0.02;
        m.read_only_optimization = true;
        m.trans_type = TransType::Sequential;
        m.num_data_disks = 3;
        assert_eq!(b, m);
        b.validate().unwrap();
    }

    #[test]
    fn pages_per_site() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.pages_per_site(), 1_000);
        assert_eq!(c.max_cohort_pages(), 9);
    }

    #[test]
    fn display_includes_table_1_names() {
        let s = SystemConfig::paper_baseline().to_string();
        for key in [
            "NumSites",
            "DBSize",
            "MPL",
            "TransType",
            "DistDegree",
            "CohortSize",
            "UpdateProb",
            "NumCPUs",
            "NumDataDisks",
            "NumLogDisks",
            "PageCPU",
            "PageDisk",
            "MsgCPU",
        ] {
            assert!(s.contains(key), "missing {key} in\n{s}");
        }
    }
}

//! The metric catalogue: every name the benchmark emits, with its unit and
//! direction.  `BENCHMARK.json` lists the same names (a self-test holds the
//! two together).

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; printed by untraced runs.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s", "lower"),
    def("tests_per_s", "1/s", "higher"),
    def("jobs_per_s", "1/s", "higher"),
    def("submit_final_ms_p50", "ms", "lower"),
    def("submit_final_ms_p90", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Single layers; printed by traced runs.
pub const PER_LAYER: [MetricDef; 40] = [
    def("apps.build_ms", "ms", "lower"),
    def("core.session_warm_ms", "ms", "lower"),
    def("core.resident_mb", "MB", "lower"),
    def("ir.decode_ms", "ms", "lower"),
    def("trace.partition_ms", "ms", "lower"),
    def("dddg.build_ms", "ms", "lower"),
    def("vm.clean_run_ms", "ms", "lower"),
    def("vm.checkpoint_ms", "ms", "lower"),
    def("vm.ns_per_step", "ns", "lower"),
    def("vm.ns_per_step_traced", "ns", "lower"),
    def("vm.steps_per_test", "count", "lower"),
    def("vm.fork_skip_frac", "fraction", "higher"),
    def("inject.sites_ms", "ms", "lower"),
    def("inject.test_us", "us", "lower"),
    def("inject.verify_us", "us", "lower"),
    def("inject.tests", "count", "higher"),
    def("inject.degraded", "count", "lower"),
    def("inject.harness_errors", "count", "lower"),
    def("inject.batch.sweep_us_per_lane", "us", "lower"),
    def("inject.batch.masked_frac", "fraction", "higher"),
    def("patterns.prime_ms", "ms", "lower"),
    def("patterns.us_per_test", "us", "lower"),
    def("patterns.ns_per_event", "ns", "lower"),
    def("patterns.instances_per_test", "count", "higher"),
    def("spmd.clean_state_ms", "ms", "lower"),
    def("spmd.test_us.compute", "us", "lower"),
    def("spmd.test_us.message", "us", "lower"),
    def("spmd.containment_rate", "fraction", "higher"),
    def("serve.cache_lookup_ms.hit", "ms", "lower"),
    def("serve.cache_lookup_ms.miss", "ms", "lower"),
    def("serve.cache_hits", "count", "higher"),
    def("serve.cache_misses", "count", "lower"),
    def("serve.evictions", "count", "lower"),
    def("serve.shard_exec_ms", "ms", "lower"),
    def("serve.frame_us", "us", "lower"),
    def("serve.report_json_us", "us", "lower"),
    def("serve.merge_us", "us", "lower"),
    def("serve.overhead_ms", "ms", "lower"),
    def("bench.trace_overhead_frac", "fraction", "lower"),
    def("bench.unattributed_frac", "fraction", "lower"),
];

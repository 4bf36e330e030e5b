// Fixture: the mutation corpus — each line feeds one host- or
// order-dependent value to `MetricsRegistry::inc` in
// `ClusterSim::apply_command`, and each must raise a token rule on itself.
fn apply_command(&mut self, node: NodeId, level: Level, now: SimTime) {
    let c = self.obs_i.commands_failed;
    self.obs.metrics.inc(c, std::collections::HashMap::<u32, u64>::new().into_values().sum()); // line 6: unordered-collections
    self.obs.metrics.inc(c, std::time::Instant::now().elapsed().as_nanos() as u64); // line 7: wall-clock
    self.obs.metrics.inc(c, rand::random::<u64>()); // line 8: ad-hoc-rng
    self.obs.metrics.inc(c, std::thread::available_parallelism().map_or(1, |n| n.get() as u64)); // line 9: host-read
    self.obs.metrics.inc(c, format!("{:?}", std::thread::current().id()).len() as u64); // line 10: host-read
    self.obs.metrics.inc(c, std::env::var("PPC_CORPUS").map_or(0, |v| v.len() as u64)); // line 11: host-read
    self.actuate_level(node, level);
}

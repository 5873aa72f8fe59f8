"""Run counters and the benchmark output row."""

from dataclasses import dataclass


CSV_COLUMNS = [
    "scheme",
    "procs",
    "r_cols",
    "r_comp",
    "notification",
    "iotlb",
    "ops",
    "remote_ops",
    "bytes_wire",
    "sim_time_ns",
    "energy_j",
    "throughput_ops_per_s",
]


@dataclass
class Metrics:
    ops: int = 0
    remote_ops: int = 0
    packets: int = 0
    bytes_wire: int = 0
    bytes_payload: int = 0
    sim_time_ns: float = 0.0
    energy_j: float = 0.0
    collisions: int = 0
    handler_invocations: int = 0
    records_committed: int = 0
    records_consumed: int = 0
    iotlb_hits: int = 0
    iotlb_misses: int = 0
    fault_entries: int = 0
    fault_drops: int = 0
    backpressure_stalls: int = 0

    def count_wire(self, wire_bytes, payload_bytes):
        self.packets += 1
        self.bytes_wire += wire_bytes
        self.bytes_payload += payload_bytes

    def finalize(self, cfg, engine):
        self.sim_time_ns = engine.last_activity
        self.energy_j = self.bytes_wire * cfg.joules_per_byte
        return self

    @property
    def throughput_ops_per_s(self):
        if self.sim_time_ns <= 0:
            return 0.0
        return self.ops / (self.sim_time_ns * 1e-9)

    def as_row(self, cfg):
        return {
            "scheme": cfg.scheme,
            "procs": cfg.num_procs,
            "r_cols": cfg.r_cols,
            "r_comp": cfg.r_comp,
            "notification": cfg.resolved_notification(),
            "iotlb": "%s-%s-%s" % (cfg.iotlb_size, cfg.iotlb_assoc, cfg.iotlb_policy),
            "ops": self.ops,
            "remote_ops": self.remote_ops,
            "bytes_wire": self.bytes_wire,
            "sim_time_ns": self.sim_time_ns,
            "energy_j": self.energy_j,
            "throughput_ops_per_s": self.throughput_ops_per_s,
        }

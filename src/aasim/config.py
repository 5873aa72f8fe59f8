"""Run configuration: defaults, file loading, and validation.

Config files are plain ``key = value`` lines (# comments allowed). Keys match
the field names below, with hyphens accepted in place of underscores.
"""

import dataclasses
import math
from dataclasses import dataclass, fields

from .logbuf import record_size
from .paging import PagingError, iotlb_ways

SCHEMES = ("aa-int", "aa-poll", "aa-sp", "rma", "am")
# The smallest ring that holds one record carrying a word of data.
MIN_ACCESS_LOG_SIZE = record_size(8, with_data=True)
_SCHEME_NOTIFY = {"aa-int": "int", "aa-poll": "poll", "aa-sp": "sp"}


class ConfigError(Exception):
    pass


@dataclass
class SimConfig:
    scheme: str = "aa-poll"
    num_procs: int = 8
    ops_per_proc: int = 1000
    seed: int = 1
    r_cols: float = 0.0
    r_comp: float = 0.0

    poll_interval_ns: float = 1000.0
    interrupt_ns: float = 3000.0
    scratchpad_ns: float = 15.0
    interrupt_batch: int = 10

    mem_access_ns: float = 70.0
    iommu_proc_ns: float = 5.0
    issue_cost_ns: float = 1500.0
    handler_cost_ns: float = 100.0

    iotlb_size: int = 64
    iotlb_assoc: str = "full"
    iotlb_policy: str = "lru"

    max_payload: int = 256
    link_latency_ns: float = 500.0
    link_bw_bytes_per_ns: float = 1.0
    credit_capacity: int = 64
    wire_header_bytes: int = 24

    access_log_size: int = 65536
    fault_log_entries: int = 256
    joules_per_byte: float = 1e-9

    iommu_enabled: bool = True
    vol_size: int = 1 << 21
    table_size: int = 0  # 0 means vol_size // 2
    stall_limit_ns: float = 5e7

    def resolved_notification(self):
        return _SCHEME_NOTIFY.get(self.scheme, "poll")

    def resolved_table_size(self):
        return self.table_size if self.table_size else self.vol_size // 2

    def validate(self):
        if self.scheme not in SCHEMES:
            raise ConfigError("unknown scheme %r (choose from %s)" % (self.scheme, ", ".join(SCHEMES)))
        if self.num_procs < 1:
            raise ConfigError("num_procs must be >= 1")
        if self.ops_per_proc < 0:
            raise ConfigError("ops_per_proc must be >= 0")
        if not 0.0 <= self.r_cols < 1.0:
            raise ConfigError("r_cols must be in [0, 1)")
        if not 0.0 <= self.r_comp < 1.0:
            raise ConfigError("r_comp must be in [0, 1)")
        if self.max_payload <= 0 or self.max_payload > 4096 or self.max_payload % 8:
            raise ConfigError("max_payload must be a multiple of 8 in (0, 4096]")
        if self.vol_size & (self.vol_size - 1):
            raise ConfigError("vol_size must be a power of two")
        ts = self.resolved_table_size()
        if ts & (ts - 1) or ts >= self.vol_size:
            raise ConfigError("table_size must be a power of two below vol_size")
        if (
            self.access_log_size < MIN_ACCESS_LOG_SIZE
            or self.access_log_size & (self.access_log_size - 1)
        ):
            raise ConfigError(
                "access_log_size must be a power of two >= %d" % MIN_ACCESS_LOG_SIZE
            )
        try:
            iotlb_ways(self.iotlb_size, self.iotlb_assoc, self.iotlb_policy)
        except PagingError as exc:
            raise ConfigError(
                "iotlb_size=%r, iotlb_assoc=%r, iotlb_policy=%r: %s"
                % (self.iotlb_size, self.iotlb_assoc, self.iotlb_policy, exc)
            )
        for f in fields(self):
            value = getattr(self, f.name)
            # nan passes every comparison below, and inf stalls the clock.
            if _FIELD_TYPES[f.name] == "float" and not math.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (f.name, value))
            if f.name.endswith("_ns") and value < 0:
                raise ConfigError("%s must be >= 0" % f.name)
        if self.poll_interval_ns == 0:
            # A polling loop that never advances the clock starves the sweep.
            raise ConfigError("poll_interval_ns must be > 0")
        if self.stall_limit_ns == 0:
            # The watchdog would call a run stalled before any event runs.
            raise ConfigError("stall_limit_ns must be > 0")
        if self.fault_log_entries < 0:
            raise ConfigError("fault_log_entries must be >= 0")
        if self.wire_header_bytes < 0:
            raise ConfigError("wire_header_bytes must be >= 0")
        if self.credit_capacity < 1:
            raise ConfigError("credit_capacity must be >= 1")
        if self.link_bw_bytes_per_ns <= 0:
            raise ConfigError("link_bw_bytes_per_ns must be positive")
        if self.joules_per_byte < 0:
            raise ConfigError("joules_per_byte must be >= 0")
        if self.interrupt_batch < 1:
            raise ConfigError("interrupt_batch must be >= 1")
        return self

    def replace(self, **kw):
        for key in kw:
            if key not in _FIELD_TYPES:
                raise ConfigError("unknown config key %r" % key)
        return dataclasses.replace(self, **kw)


_FIELD_TYPES = {
    f.name: f.type if isinstance(f.type, str) else f.type.__name__ for f in fields(SimConfig)
}


def _convert(key, raw, typ):
    raw = raw.strip()
    if typ == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError("bad boolean for %s: %r" % (key, raw))
    if typ == "int":
        try:
            return int(raw, 0)
        except ValueError:
            raise ConfigError("bad integer for %s: %r" % (key, raw))
    if typ == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError("bad number for %s: %r" % (key, raw))
    return raw


def load_config(path):
    """Parse a key = value file on top of the defaults."""
    cfg = SimConfig()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path)
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc.strerror))
    except UnicodeDecodeError:
        raise ConfigError("config file %s is not text" % path)
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (path, lineno))
        key, raw = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
        setattr(cfg, key, _convert(key, raw, _FIELD_TYPES[key]))
    return cfg

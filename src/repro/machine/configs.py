"""Machine configurations mirroring the paper's Figure 7.

The paper evaluates on a desktop Intel Core2 Quad Q6600 and a netbook Intel
Atom N270.  Two modelling choices:

* ``CORE2_FULL`` / ``ATOM_FULL`` carry the real machines' geometry
  (32 KB L1, 4 MB vs 512 KB L2, ...).
* ``CORE2`` / ``ATOM`` — the presets every experiment uses — are
  *footprint-scaled* versions: each cache level is divided by 16 while
  preserving the Core2:Atom ratios (Core2 L2 is 8x Atom's L2 in both).
  A pure-Python trace simulator cannot afford the hundred-thousand-element
  containers whose footprints straddle the real 512 KB/4 MB gap, so the
  hierarchy is shrunk until the element counts we *can* simulate
  (hundreds to thousands) exercise exactly the same capacity regimes:
  small containers fit both L2s, mid-size containers spill the Atom L2
  but fit the Core2 L2, scans overflow L1 on both.  This is the
  substitution that preserves Figure 1's architecture-dependent best-DS
  divergence (documented in DESIGN.md §2).

The non-cache parameters (frequency, issue width, miss latencies,
mispredict penalty) follow the real parts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of one simulated microarchitecture."""

    name: str
    freq_ghz: float
    # Base cost of non-memory work: cycles per retired instruction when
    # nothing misses.  OoO 4-wide Core2 ~0.4; in-order 2-wide Atom ~1.0.
    cpi_base: float
    # L1 data cache.
    l1_size: int
    l1_assoc: int
    line_bytes: int
    l1_latency: int
    # Unified L2.
    l2_size: int
    l2_assoc: int
    l2_latency: int
    # DRAM.
    mem_latency: int
    # Sequential-streaming discount: lines after the first within one
    # contiguous access are overlapped by the core/prefetcher.  A
    # 4-wide OoO core hides most of the latency (small factor); an
    # in-order core hides little.
    stream_factor: float
    # Branch predictor.
    predictor: str  # "gshare" or "bimodal"
    predictor_entries: int
    mispredict_penalty: int
    # Data TLB.
    tlb_entries: int
    page_bytes: int
    tlb_miss_penalty: int
    # Integer-division latency (hash tables' prime-modulo bucket math).
    div_latency: int
    # Allocator call cost, in instructions.
    malloc_instructions: int
    # Simulator engine preference: "scalar" (walk the hierarchy per
    # event), "vector" (record events, replay chunks in numpy), or
    # "auto" (vector for plain measurement runs, scalar when the run
    # is instrumented and reads counters after every container op).
    # Resolved by :func:`repro.machine.engine.resolve_engine`; the
    # reference seam tests use to force the scalar oracle.
    sim_engine: str = "auto"

    @property
    def l1_lines(self) -> int:
        return self.l1_size // self.line_bytes


#: Desktop machine of Figure 7 (real geometry): Intel Core2 Quad Q6600,
#: 2.4 GHz, 32 KB L1d, 4 MB L2, out-of-order 4-wide.
CORE2_FULL = MachineConfig(
    name="core2-full",
    freq_ghz=2.4,
    cpi_base=0.4,
    l1_size=32 * 1024,
    l1_assoc=8,
    line_bytes=64,
    l1_latency=3,
    l2_size=4 * 1024 * 1024,
    l2_assoc=16,
    l2_latency=14,
    mem_latency=165,
    stream_factor=0.30,
    predictor="gshare",
    predictor_entries=4096,
    mispredict_penalty=15,
    tlb_entries=256,
    page_bytes=4096,
    tlb_miss_penalty=30,
    div_latency=40,
    malloc_instructions=90,
)

#: Netbook machine of Figure 7 (real geometry): Intel Atom N270, 1.6 GHz,
#: 32 KB L1d, 512 KB L2, in-order 2-wide.
ATOM_FULL = MachineConfig(
    name="atom-full",
    freq_ghz=1.6,
    cpi_base=1.0,
    l1_size=32 * 1024,
    l1_assoc=8,
    line_bytes=64,
    l1_latency=3,
    l2_size=512 * 1024,
    l2_assoc=8,
    l2_latency=18,
    mem_latency=210,
    stream_factor=0.85,
    predictor="bimodal",
    predictor_entries=2048,
    mispredict_penalty=13,
    tlb_entries=64,
    page_bytes=4096,
    tlb_miss_penalty=40,
    div_latency=180,
    malloc_instructions=110,
)

_SCALE = 16


def _scaled(full: MachineConfig, name: str) -> MachineConfig:
    """Shrink a hierarchy by ``_SCALE`` preserving ratios and latencies."""
    return MachineConfig(
        name=name,
        freq_ghz=full.freq_ghz,
        cpi_base=full.cpi_base,
        l1_size=full.l1_size // _SCALE,
        l1_assoc=max(2, full.l1_assoc // 2),
        line_bytes=full.line_bytes,
        l1_latency=full.l1_latency,
        l2_size=full.l2_size // _SCALE,
        l2_assoc=full.l2_assoc,
        l2_latency=full.l2_latency,
        mem_latency=full.mem_latency,
        stream_factor=full.stream_factor,
        predictor=full.predictor,
        predictor_entries=full.predictor_entries,
        mispredict_penalty=full.mispredict_penalty,
        tlb_entries=max(8, full.tlb_entries // _SCALE),
        page_bytes=max(512, full.page_bytes // 4),
        tlb_miss_penalty=full.tlb_miss_penalty,
        div_latency=full.div_latency,
        malloc_instructions=full.malloc_instructions,
        sim_engine=full.sim_engine,
    )


#: The experiment presets (footprint-scaled; see module docstring).
CORE2 = _scaled(CORE2_FULL, "core2")
ATOM = _scaled(ATOM_FULL, "atom")


def config_table() -> list[dict[str, object]]:
    """Figure 7 as rows (real and scaled presets), for the bench harness."""
    rows = []
    for cfg in (CORE2_FULL, ATOM_FULL, CORE2, ATOM):
        rows.append(
            {
                "machine": cfg.name,
                "frequency_ghz": cfg.freq_ghz,
                "l1_data": f"{cfg.l1_size // 1024} KB {cfg.l1_assoc}-way",
                "l2_unified": (f"{cfg.l2_size // 1024} KB "
                               f"{cfg.l2_assoc}-way"),
                "line_bytes": cfg.line_bytes,
                "mem_latency_cycles": cfg.mem_latency,
                "predictor": cfg.predictor,
                "mispredict_penalty": cfg.mispredict_penalty,
                "core": "4-wide OoO" if cfg.cpi_base < 1 else "2-wide in-order",
            }
        )
    return rows

"""The benchmark's workloads: three shapes that stress different layers.

Names are stable identifiers; later issues cite them.  The reason each
one is here lives next to its name in ``BENCHMARK.json`` (``why``) and,
at length, in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One benchmark shape: a numeric job plus its paper-scale sibling."""

    name: str
    alg: str
    m: int
    n: int
    P: int
    #: Symbolic (cost-only) sibling ``(m, n, P)``: same algorithm at a
    #: shape the numeric backends cannot reach in a benchmark run.
    sibling: tuple[int, int, int]
    #: Per-rank leaf block ``(rows, cols)`` the kernel probes factor.
    #: Read off the ``local_geqrt`` calls of one serial run: tsqr leaves
    #: are ``m/P x n``; caqr3d's dominant panel is ``m/P x 32``; house2d
    #: has no geqrt, so its leaf is one ``bb = 4`` column block of a
    #: rank's ``m/pr`` rows.
    leaf: tuple[int, int]
    params: dict = field(default_factory=dict)

    def cli_args(self) -> list[str]:
        """``--m/--n/--P`` as the ``python -m repro`` subcommands take them."""
        return ["--m", str(self.m), "--n", str(self.n), "--P", str(self.P)]

    def knob_args(self) -> list[str]:
        """The algorithm knobs as ``python -m repro run`` flags."""
        return [tok for k, v in self.params.items() for tok in (f"--{k}", str(v))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tallskinny", "tsqr", 32768, 64, 8,
                 sibling=(262144, 64, 512), leaf=(4096, 64)),
        Workload("squarish3d", "caqr3d", 1024, 256, 8,
                 sibling=(2048, 256, 32), leaf=(128, 32),
                 params={"delta": 0.5}),
        Workload("grid2d-percolumn", "house2d", 384, 96, 8,
                 sibling=(1024, 64, 64), leaf=(48, 4)),
    )
}

"""The backend registry: protocol flags, dispatch, capability gating.

Contracts pinned here:

* the three built-in backends are registered with the documented flag
  sets, and every library entry point (Machine, run_qr, run_many, the
  CLI's choices) resolves backends through the registry rather than
  comparing name strings;
* capability flags drive the gated-algorithm error path: an algorithm
  outside a backend's declared set raises the typed
  :class:`~repro.machine.BackendCapabilityError` (a
  :class:`~repro.machine.ParameterError`), with the backend, the
  algorithm, and the supported set attached;
* third-party backends plug in by registration and immediately work
  with ``Machine`` and ``run_qr`` -- no core changes.
"""

import numpy as np
import pytest

from repro.backend import (
    Backend,
    NumericBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backend.registry import unregister_backend
from repro.machine import BackendCapabilityError, Machine, ParameterError
from repro.workloads import ALGORITHMS, gaussian, run_qr


class TestBuiltins:
    def test_three_backends_registered(self):
        assert set(available_backends()) >= {"numeric", "symbolic", "parallel"}

    def test_flag_sets(self):
        num = get_backend("numeric")
        sym = get_backend("symbolic")
        par = get_backend("parallel")
        assert (num.symbolic, num.parallel, num.concrete, num.validates) == (
            False, False, True, True)
        assert (sym.symbolic, sym.parallel, sym.concrete, sym.validates) == (
            True, False, False, False)
        assert (par.symbolic, par.parallel, par.concrete, par.validates) == (
            False, True, False, True)
        assert sym.shape_inputs and not num.shape_inputs

    def test_full_algorithm_coverage(self):
        for name in ("numeric", "symbolic", "parallel"):
            impl = get_backend(name)
            assert all(impl.supports(alg) for alg in ALGORITHMS), name

    def test_unknown_backend_name(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            get_backend("bogus")
        with pytest.raises(ValueError, match="registered backends"):
            Machine(2, backend="bogus")

    def test_resolve_accepts_instances(self):
        impl = get_backend("numeric")
        assert resolve_backend(impl) is impl
        assert resolve_backend("numeric") is impl

    def test_machine_accepts_backend_instance(self):
        machine = Machine(2, backend=get_backend("symbolic"))
        assert machine.backend == "symbolic" and not machine.concrete

    def test_make_input_shapes(self):
        assert get_backend("symbolic").make_input(8, 4) == (8, 4)
        A = get_backend("numeric").make_input(8, 4, seed=1)
        assert A.shape == (8, 4) and isinstance(A, np.ndarray)

    def test_coerce_global_rejects_mismatches(self):
        with pytest.raises(ParameterError, match="shape-only"):
            get_backend("numeric").coerce_global((8, 4))
        from repro.backend import SymbolicArray

        with pytest.raises(ParameterError, match="symbolic"):
            get_backend("parallel").coerce_global(SymbolicArray((8, 4)))


class _RestrictedBackend(NumericBackend):
    """A numeric twin that only knows tall-skinny TSQR."""

    name = "tsqr-only"
    capabilities = frozenset({"tsqr"})


@pytest.fixture
def restricted():
    impl = register_backend(_RestrictedBackend())
    yield impl
    unregister_backend(impl.name)


class TestCapabilities:
    def test_capability_error_is_typed_and_explained(self, restricted):
        with pytest.raises(BackendCapabilityError) as exc:
            run_qr("house2d", gaussian(32, 16, seed=0), P=4, backend="tsqr-only")
        err = exc.value
        assert isinstance(err, ParameterError)
        assert err.backend == "tsqr-only"
        assert err.algorithm == "house2d"
        assert err.capabilities == ("tsqr",)
        assert "house2d" in str(err) and "tsqr" in str(err)

    def test_supported_algorithm_still_runs(self, restricted):
        r = run_qr("tsqr", gaussian(64, 4, seed=0), P=4, backend="tsqr-only")
        assert r.diagnostics.ok()
        assert r.report == run_qr("tsqr", gaussian(64, 4, seed=0), P=4).report

    def test_run_many_respects_capabilities(self, restricted):
        from repro.engine import QRJob, run_many

        with pytest.raises(BackendCapabilityError):
            run_many([QRJob("caqr1d", gaussian(64, 4, seed=0))],
                     P=4, backend="tsqr-only")

    def test_unrestricted_backend_supports_everything(self):
        assert Backend().supports("anything-at-all")

    def test_duplicate_registration_rejected(self, restricted):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(_RestrictedBackend())

    def test_builtin_unregistration_rejected(self):
        with pytest.raises(ValueError, match="cannot be unregistered"):
            unregister_backend("numeric")


class TestNoStringDispatch:
    def test_no_backend_string_comparisons_outside_registry(self):
        """Acceptance pin: backend-name equality checks live only in
        repro.backend.registry (and there only as registry lookups)."""
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        pattern = re.compile(
            r"backend\s*(==|!=)\s*['\"]|['\"](numeric|symbolic|parallel)['\"]\s*(==|!=)\s*backend"
        )
        offenders = []
        for path in src.rglob("*.py"):
            if path.name == "registry.py" and path.parent.name == "backend":
                continue
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(src)}:{i}: {line.strip()}")
        assert not offenders, "\n".join(offenders)

    def test_redistribution_code_never_asks_which_backend_runs_it(self):
        """The algorithm layers are one path for every backend: every
        local kernel is a ``machine.kernel`` call, and symbolic runs are
        cheap because ``run_kernel`` returns the metas, not because the
        code looks.  ``machine.concrete`` is the one flag they may read,
        and only to choose a flop mask."""
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        layers = [
            path for name in ("qr", "matmul", "dist", "collectives")
            for path in sorted((src / name).rglob("*.py"))
        ]
        assert len(layers) > 30
        asks = re.compile(
            r"\.(symbolic|parallel|backend_impl)\b|\b(machine|ops)\.backend\b"
            r"|is_symbolic|is_lazy|_repro_lazy_"
            r"|\bdefer\(|from repro\.engine|import repro\.engine"
            r"|isinstance\([^)]*(SymbolicArray|LazyArray)"
        )
        gone = re.compile(
            r"entries_in_rect|emit_operand|_interval_add|_interval_set|_route_pairs"
            r"|_rec3d|_scatter_rows_from_root"
            r"|_Unmetered|_UNMETERED|get_ops|local_add"
        )
        offenders, masks = [], []
        for path in layers:
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if asks.search(line):
                    offenders.append(f"{path.relative_to(src)}:{i}: {line.strip()}")
                if ".concrete" in line:
                    masks.append(f"{path.relative_to(src)}:{i}: {line.strip()}")
        for path in src.rglob("*.py"):
            may_defer = path.parent.name == "engine" or path.name == "registry.py"
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if gone.search(line) or (not may_defer and re.search(r"\bdefer\(", line)):
                    offenders.append(f"{path.relative_to(src)}:{i}: {line.strip()}")
        assert not offenders, "\n".join(offenders)
        assert len(masks) <= 3, "\n".join(masks)

    def test_collectives_touch_data_only_where_the_math_combines_it(self):
        """A collective is a schedule on word counts plus, per reduction
        result, one combine kernel: no payload slicing or reassembly, no
        reduction operator other than the sum, no barrier object, and no
        question about what kind of payload (or backend) it carries."""
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        gone = re.compile(r"_split_array|_reassemble|\bop=|class Barrier")
        asks = re.compile(
            r"hasattr\(|\.concrete\b|isinstance\([^)]*(SymbolicArray|LazyArray|ndarray)")
        offenders = [
            f"{path.relative_to(src)}:{i}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line) or (path.parent.name == "collectives" and asks.search(line))
        ]
        assert not offenders, "\n".join(offenders)

    def test_algorithm_2_and_eq_4_are_written_once(self):
        """One recursion on column halves, one Eq. 4 update, one module that
        multiplies, one helper that gathers and scatters -- under
        ``src/repro/qr``, counted in the source."""
        import pathlib
        import re

        qr = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "qr"
        text = {p.name: p.read_text() for p in qr.glob("*.py")}

        def modules_matching(pattern):
            return sorted(name for name, src in text.items() if re.search(pattern, src))

        # Every distributed multiplication is called from the product rules.
        for call in (r"\bmm3d\(", r"\bmm1d_reduce\(", r"\bmm1d_broadcast\("):
            assert modules_matching(call) == ["applyq.py"], call
        # The subtract of Eq. 4 exists once; every caller reaches apply_q.
        assert modules_matching(r"\.local\(p\) - ") == ["applyq.py"]
        assert text["applyq.py"].count(".local(p) - ") == 1
        for name in ("caqr1d.py", "caqr3d.py"):
            assert "qr_eg(" in text[name] and "n // 2" not in text[name]
        assert "apply_q(" in text["qreg.py"] and "apply_q(" in text["qreg_iter.py"]
        assert "apply_q_3d(" in text["wide.py"]
        # Exactly one function recurses on column halves of a DistMatrix.
        assert modules_matching(r"\.cols\(0, n2\)") == ["qreg.py"]
        assert not modules_matching(r"def _rec\b")
        # No hand-built column cut or boolean row mask is left around them.
        masks = re.compile(r"\.local\(\w+\)\[:, |rows(_of\(\w+\))? (>=|<) ")
        for name in ("caqr1d.py", "caqr3d.py", "wide.py", "qreg.py"):
            assert not masks.search(text[name]), name
        distributed = text["qreg_iter.py"].split("def qr_1d_caqr_eg_rightlooking")[1]
        assert not masks.search(distributed)
        # The base case moves rows through the one helper, never by hand.
        assert not modules_matching(r"\b(gather|scatter)\(")
        assert len(re.findall(r"\b(?:gather|scatter)_rows\(", text["caqr3d.py"])) == 8


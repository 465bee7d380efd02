"""The cost path against fixed references: the default cost report as a
golden file, and every closed form against the paper's rows, written out
here term by term."""

import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim.cli import main as cli_main
from splitsim.comm import METHODS, CostParams, comm_per_client, total_comm, training_time
from splitsim.harness import emit_cost_report

GOLDEN = Path(__file__).parent / "golden"


class TestDefaultReportGolden:
    def test_emit_cost_report(self):
        assert emit_cost_report() == (GOLDEN / "cost_default.csv").read_text()

    def test_cli_stdout(self, capsys):
        assert cli_main(["cost"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "cost_default.csv").read_text()


def paper_rows(p: CostParams) -> dict[str, tuple[float, float, float]]:
    """(per client MB, total MB, time s) per method, as the paper writes them."""
    d, c, sl, sw, swc = (p.dataset_size, p.clients, p.cut_size_mb,
                         p.model_size_mb, p.client_size_mb)
    phi, r, t = p.active_fraction, p.link_rate, p.compute_time
    return {
        "fl": (2 * sw, 2 * c * sw, t + 2 * sw / r),
        "ssl": (2 * d * sl / c + 2 * swc, 2 * d * sl + 2 * c * swc,
                t + 2 * d * sl / r + 2 * c * swc / r),
        "sfl": (2 * d * sl / c + 2 * swc, 2 * d * sl + 2 * c * swc,
                t + 2 * d * sl / (c * r) + 2 * swc / r),
        "sglr": (((2 - phi) * d * sl + sl) / c, (2 - phi) * d * sl + sl,
                 t + ((2 - phi) * d * sl + sl) / (c * r)),
        "psl": (2 * d * sl / c, 2 * d * sl, t + 2 * d * sl / (c * r)),
    }


sizes = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@settings(max_examples=300, deadline=None)
@given(
    cut=sizes, model=sizes, segment=sizes,
    dataset=st.integers(0, 10**7), clients=st.integers(1, 10**4),
    phi=st.floats(0.0, 1.0), rate=st.floats(1e-3, 1e4), compute=sizes,
)
def test_closed_forms_match_paper_rows(cut, model, segment, dataset, clients, phi, rate,
                                       compute):
    p = CostParams(cut, model, segment, dataset, clients, active_fraction=phi,
                   link_rate=rate, compute_time=compute)
    rows = paper_rows(p)
    assert set(rows) == set(METHODS)
    for method, (per_client, total, seconds) in rows.items():
        got = (comm_per_client(method, p), total_comm(method, p), training_time(method, p))
        for value, want in zip(got, (per_client, total, seconds)):
            assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0), (method, value, want)

"""perfbench's tracer still reaches every layer of a rho_cb evaluation.

The tracer wraps package functions from outside; a refactor that renames
or bypasses one of them silently drops that layer from `--trace 1`.
"""

import sys
from pathlib import Path

from fieldchannel import channel
from fieldchannel.channel import BobSpec, ChannelConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402

SPANS = ("channel.overlap_closed", "channel.overlap_truncated", "channel.assemble_rho",
         "qmath.validate", "qmath.coherent_information", "observables.check_conditions",
         "smearing.gauss_legendre_panels")


def test_every_layer_traced():
    # a cold evaluation: a memoised k grid and window would skip the
    # Gauss-Legendre rules
    channel._K_GRIDS.clear()
    tracer = Tracer()
    tracer.attach()
    tracer.install()
    try:
        for bob in (BobSpec(), BobSpec("truncated_outer", r0=9.0, eps=0.1)):
            channel.rho_cb(ChannelConfig(lambda_phi=10.0, bob=bob))
    finally:
        tracer.uninstall()
    tracer.finish_op(0, 0.0, 1.0, ok=True, rows=2)
    for span in SPANS:
        assert tracer.calls[span] >= 1, span
    # one eigen-decomposition of the 4x4 state per row
    assert tracer.counts["qmath.eigh4"] == 2

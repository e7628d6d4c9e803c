"""Traffic classes of the I/O path.

Every IO the data plane submits carries a
:class:`~repro.io.qos.QoSClass` down through the NVMf session to the
device's front-end arbiter; :data:`~repro.io.qos.DEFAULT_WRR_WEIGHTS`
are the arbiter's default weights.
"""

from repro.io.qos import DEFAULT_WRR_WEIGHTS, QoSClass

__all__ = ["DEFAULT_WRR_WEIGHTS", "QoSClass"]

"""TCP substrate: sender, receiver and congestion-control algorithms."""

# netsim's topology is built from this package's endpoints, and they from its
# engine and packets: load netsim first, so the cycle is entered from its side.
from .. import netsim  # noqa: F401
from .cca import CCA_FACTORIES, CCA_REGISTRY, cca_factory
from .cca.base import AckEvent, CongestionControl
from .cca.bbr import Bbr
from .cca.cubic import Cubic
from .cca.reno import Reno
from .rate_sampler import DeliveryRateEstimator, RateSample, SegmentTxState
from .receiver import TcpReceiver
from .rto import RttEstimator
from .sack import SackScoreboard, SegmentState
from .sender import SenderStats, TcpSender

__all__ = [
    "AckEvent",
    "Bbr",
    "CCA_FACTORIES",
    "CCA_REGISTRY",
    "CongestionControl",
    "Cubic",
    "DeliveryRateEstimator",
    "RateSample",
    "Reno",
    "RttEstimator",
    "SackScoreboard",
    "SegmentState",
    "SegmentTxState",
    "SenderStats",
    "TcpReceiver",
    "TcpSender",
    "cca_factory",
]

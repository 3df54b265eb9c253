"""EPR spin correlations around a cosmic string via Fermi-Walker transport.

Library layers, bottom up:

* :mod:`eprfw.geometry` - conical metric, rest-frame tetrad, Christoffel
  symbols, spin/Fermi-Walker/total connection 1-forms, curvature and
  holonomy oracles;
* :mod:`eprfw.kinematics` - circular worldlines: four-velocity, proper
  acceleration, proper time, frame momenta;
* :mod:`eprfw.transport` - Lorentz generators (spin-half and Dirac), the
  closed-form transport operator, the path-ordered product engine shared by
  spin and frame-vector transport, and the Wigner precession angle;
* :mod:`eprfw.epr` - Bell basis, pair evolution, CHSH violation,
  degradation, and restoration by rotated measurement axes, per point and
  over arrays of sweep points;
* :mod:`eprfw.verify` - the self-verification battery behind
  ``eprfw verify``;
* :mod:`eprfw.cli` - the ``eprfw`` command-line front end.
"""

__version__ = "0.1.0"

from .geometry import (
    OnAxisError,
    SpacetimePoint,
    StringGeometry,
    Tetrad,
    christoffel_at,
    christoffel_fd,
    fw_connection_at,
    holonomy_deficit_angle,
    metric_at,
    riemann_at,
    spin_connection_at,
    spin_connection_fd,
    tetrad_at,
    total_connection_at,
)
from .kinematics import (
    CircularWorldline,
    four_momentum_frame,
    four_velocity,
    proper_acceleration,
    proper_time_total,
    xi_from_beta,
)
from .transport import (
    TransportParams,
    chiral_block,
    gamma_matrices,
    lorentz_generators,
    transport_closed_form,
    transport_from_connection,
    transport_params,
    wigner_angle,
)
from .epr import (
    BellReport,
    bell_columns,
    bell_decomposition,
    bell_report,
    bell_states,
    chsh_closed_form,
    chsh_direct,
    chsh_restored,
    chsh_settings,
    correlator,
    evolve_pair,
    final_state_closed_form,
    initial_state,
    restored_settings,
)
from .verify import CheckResult, run_checks

__all__ = [name for name in dir() if not name.startswith("_")]

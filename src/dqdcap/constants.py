"""Physical constants and unit conversions (SI internally, nm/aF/mV/e at I/O)."""

Q_E = 1.602176634e-19  # elementary charge, C
EPS0 = 8.8541878128e-12  # vacuum permittivity, F/m

NM = 1e-9  # nm -> m
AF = 1e-18  # aF -> F
MV = 1e-3  # mV -> V

# positive Maxwell off-diagonals up to this fraction of the largest diagonal
# are numerical noise; larger ones are an error
OFFDIAG_TOL = 1e-3

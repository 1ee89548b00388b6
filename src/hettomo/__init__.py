"""Heterodyne measurement simulation and moment-based state tomography."""

__version__ = "0.1.0"

from .moments import (ANTINORMAL, DETECTOR, NORMAL, BatchMoments, MomentMatrix,
                      moment_indices)
from .fock import (FockState, NoiseModel, analytic_moments, antinormal_moments,
                   coherent_state, husimi_q, loss_channel, noise_moments,
                   prepare_superposition, thermal_state, wigner_oracle)
from .simulate import (AmplifierChain, ShotBatch, TemporalEnvelope,
                       matched_filter, overlap, sample_detector, sample_q,
                       simulate_time_trace)
from .acquire import (QuadratureHistogram, StreamingMoments, combine_batches,
                      histogram_moments, vacuum_sigma)
from .tomo import (InversionReport, WignerGrid, bootstrap_errors, estimate_gain,
                   forward_moments, invert_moments, reconstruct_wigner,
                   recover_noise_moments, truncation_order, wigner_kernel)

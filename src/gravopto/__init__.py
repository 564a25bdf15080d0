"""Digital simulation of gravitationally induced optomechanical entanglement.

Two bosonic modes, truncated to their lowest two levels and dual-rail
encoded on four qubits, evolve under a bilinear coupling whose exponential
factors exactly into four commuting Pauli rotations. The package builds that
circuit, transpiles it to a CNOT-limited device basis, computes its exact
outcome distribution under depolarising and readout noise, samples from it,
and estimates entanglement fidelity from five tomography settings with readout
mitigation and post-selection.

The command line (``gravopto.cli``) is the interface; code that uses the
package imports its modules by path (``from gravopto.experiment import ...``).
"""

__version__ = "0.1.0"

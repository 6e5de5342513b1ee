"""
IIR filtering: bandpass, notches, and the zero-phase option
===========================================================
"""
import numpy as np

from semgkit import (
    cascade,
    design_bandpass,
    design_notch,
    filter_channels,
    frequency_response,
)

FS = 2000.0

# The preprocessing chain: order-5 Butterworth 20-200 Hz, then two
# notches that remove the interference line and its harmonic.
bp = design_bandpass(20.0, 200.0, order=5, sample_rate=FS)
n74 = design_notch(74.0, quality=30.0, sample_rate=FS)
n148 = design_notch(148.0, quality=30.0, sample_rate=FS)
chain = cascade(bp, n74, n148)

print("bandpass sections:", len(bp.sections))
print("chain sections:", len(chain.sections))

freqs = [5.0, 20.0, 74.0, 110.0, 148.0, 200.0, 400.0]
mags = frequency_response(chain, freqs, FS)
print("\nmagnitude response of the chain:")
for f, m in zip(freqs, mags):
    db = 20.0 * np.log10(max(m, 1e-12))
    print(f"  {f:6.1f} Hz  {db:8.2f} dB")

# Filter a test signal: in-band 100 Hz tone plus 74 Hz interference.
t = np.arange(int(FS)) / FS
x = np.sin(2 * np.pi * 100.0 * t) + 0.8 * np.sin(2 * np.pi * 74.0 * t)


def tone_amplitude(sig, f):
    # projection onto the tone; abs() makes the phase origin irrelevant
    tt = np.arange(sig.size) / FS
    return 2.0 * abs(np.mean(sig * np.exp(-2j * np.pi * f * tt)))


y = filter_channels(chain, x)
print("\nafter causal filtering:")
print("  100 Hz amplitude:", round(tone_amplitude(y[500:], 100.0), 4))
print("   74 Hz amplitude:", round(tone_amplitude(y[500:], 74.0), 4))

# zero_phase runs the filter forward and then backward, which squares the
# magnitude response and cancels the phase lag. Offline analysis only.
z = filter_channels(chain, x, zero_phase=True)
print("\nafter zero-phase filtering:")
print("  100 Hz amplitude:", round(tone_amplitude(z[500:-500], 100.0), 4))
print("   74 Hz amplitude:", round(tone_amplitude(z[500:-500], 74.0), 4))

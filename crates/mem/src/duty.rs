//! The bit-duty profiler: per-bit-position duty-cycle histograms of
//! the weight banks a quantized model would occupy on chip.
//!
//! DNN weights are written once and then *held* for the deployment
//! life of the chip, so the stress a weight-SRAM cell sees is decided
//! entirely by the stored bit pattern: a cell that holds a constant
//! value keeps one side of the cell under static NBTI stress for the
//! whole mission. The profiler reduces a bank (one weighted layer's
//! `channels × fan` code matrix from `agequant-quant`) to its
//! per-bit-position ones density — the fraction of cells in each bit
//! column that hold a `1` — which is the population view of that
//! static stress.

use agequant_quant::QuantizedModel;
use serde::{Deserialize, Serialize};

/// Per-bit-position duty statistics of one weight bank (one weighted
/// layer's stored code matrix).
///
/// `ones[k]` counts the stored words whose bit `k` is set; dividing by
/// `words` gives the column's duty cycle in `[0, 1]`. Only the low
/// `bits` positions are populated — the quantizer never sets higher
/// bits, and [`BankDuty::from_codes`] asserts that.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankDuty {
    /// Which bank this is (the graph node index of the layer).
    pub layer: u32,
    /// Stored word width in bits.
    pub bits: u8,
    /// Number of stored words (`channels × fan`).
    pub words: u64,
    /// Per-bit-position ones counts, LSB first, `bits` entries.
    pub ones: Vec<u64>,
}

impl BankDuty {
    /// Profiles a raw code slice as one bank of `bits`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 8, or if any code uses a bit
    /// at or above `bits`.
    #[must_use]
    pub fn from_codes(layer: u32, codes: &[u8], bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "word width {bits} outside 1..=8");
        let mut ones = vec![0u64; bits as usize];
        for &code in codes {
            assert!(
                u32::from(code) < (1u32 << bits),
                "code {code} does not fit {bits} bits"
            );
            for (k, count) in ones.iter_mut().enumerate() {
                *count += u64::from((code >> k) & 1);
            }
        }
        BankDuty {
            layer,
            bits,
            words: codes.len() as u64,
            ones,
        }
    }

    /// Per-bit-position duty cycles in `[0, 1]`, LSB first. An empty
    /// bank reports 0 duty everywhere.
    #[must_use]
    pub fn duty(&self) -> Vec<f64> {
        self.ones
            .iter()
            .map(|&n| {
                if self.words == 0 {
                    0.0
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        n as f64 / self.words as f64
                    }
                }
            })
            .collect()
    }

    /// The duty asymmetry of bit position `k`: `|2·duty − 1| ∈ [0, 1]`.
    /// 0 means the column is perfectly balanced (half the cells hold
    /// each value); 1 means every cell holds the same value.
    #[must_use]
    pub fn asymmetry(&self, k: usize) -> f64 {
        let duty = self.duty();
        (2.0 * duty[k] - 1.0).abs()
    }

    /// The worst (largest) per-bit duty asymmetry of the bank.
    /// An empty or zero-width bank reports 1.0 — a bank that stores
    /// nothing variable is fully asymmetric by convention.
    #[must_use]
    pub fn worst_asymmetry(&self) -> f64 {
        if self.words == 0 || self.ones.is_empty() {
            return 1.0;
        }
        (0..self.ones.len())
            .map(|k| self.asymmetry(k))
            .fold(0.0, f64::max)
    }

    /// The worst-side duty of the worst bit position:
    /// `0.5 + worst_asymmetry / 2 ∈ [0.5, 1]` — the duty cycle the
    /// most-stressed cell side of the bank sees.
    #[must_use]
    pub fn worst_side_duty(&self) -> f64 {
        0.5 + self.worst_asymmetry() / 2.0
    }

    /// Total number of stored ones across all bit positions. Equals
    /// the sum of `popcount` over the codes — the consistency anchor
    /// the ME001 lint and the proptests check.
    #[must_use]
    pub fn total_ones(&self) -> u64 {
        self.ones.iter().sum()
    }
}

/// Profiles every weight bank of a quantized model, in graph order:
/// one [`BankDuty`] per weighted layer, over the stored codes at the
/// model's weight bit width.
#[must_use]
pub fn profile_model(model: &QuantizedModel) -> Vec<BankDuty> {
    let bits = model.bits().weights;
    model
        .weight_banks()
        .map(|bank| {
            BankDuty::from_codes(
                u32::try_from(bank.node.index()).expect("node id fits"),
                bank.codes,
                bits,
            )
        })
        .collect()
}

/// Profiles every weight bank of a quantized model as stored under a
/// MAC compression that truncates `beta` weight LSBs: the bank holds
/// `bits − beta`-bit words (`code >> beta`). This is the concrete
/// coupling between the MAC-side `(α, β)` compression choice and
/// memory wear the fleet decider weighs: more truncation stores fewer,
/// differently-balanced bits.
///
/// Returns an empty vec when `beta` consumes the whole word.
#[must_use]
pub fn profile_model_for_beta(model: &QuantizedModel, beta: u8) -> Vec<BankDuty> {
    let bits = model.bits().weights;
    if beta >= bits {
        return Vec::new();
    }
    let truncated_bits = bits - beta;
    model
        .weight_banks()
        .map(|bank| {
            let codes: Vec<u8> = bank.codes.iter().map(|&c| c >> beta).collect();
            BankDuty::from_codes(
                u32::try_from(bank.node.index()).expect("node id fits"),
                &codes,
                truncated_bits,
            )
        })
        .collect()
}

/// The worst per-bit asymmetry across a set of banks (1.0 for an empty
/// set — nothing stored is fully static by convention).
#[must_use]
pub fn worst_asymmetry(banks: &[BankDuty]) -> f64 {
    if banks.is_empty() {
        return 1.0;
    }
    banks
        .iter()
        .map(BankDuty::worst_asymmetry)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_duty_follow_the_codes() {
        // Words: 0b101, 0b001, 0b100, 0b111 (bits = 3).
        let bank = BankDuty::from_codes(4, &[0b101, 0b001, 0b100, 0b111], 3);
        assert_eq!(bank.ones, vec![3, 1, 3]);
        assert_eq!(bank.words, 4);
        assert_eq!(bank.duty(), vec![0.75, 0.25, 0.75]);
        assert_eq!(bank.total_ones(), 7);
        assert!((bank.worst_asymmetry() - 0.5).abs() < 1e-15);
        assert!((bank.worst_side_duty() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn empty_bank_is_fully_asymmetric_by_convention() {
        let bank = BankDuty::from_codes(0, &[], 4);
        assert_eq!(bank.worst_asymmetry(), 1.0);
        assert_eq!(bank.duty(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_codes_are_rejected() {
        let _ = BankDuty::from_codes(0, &[0b1000], 3);
    }

    #[test]
    fn balanced_bank_has_zero_asymmetry() {
        let bank = BankDuty::from_codes(0, &[0b00, 0b01, 0b10, 0b11], 2);
        assert_eq!(bank.worst_asymmetry(), 0.0);
        assert_eq!(bank.worst_side_duty(), 0.5);
    }
}

//! Kept masks: pattern pruning as one flag per kernel position.
//!
//! Both pattern baselines describe their pruning as a kept mask over the
//! `K_h × K_w` kernel slices of the weight tensor: PAIRS one mask shared by
//! every slice, PatDNN one mask per slice. The tensor's storage order
//! `(o, i, r, c)` is the row-major order of its im2col matrix, so one pass
//! over the slices does the im2col arithmetic term for term without
//! building a matrix.

use imc_tensor::Tensor4;

/// The mask of each kernel slice of `weight`, in storage order. `kept` is
/// either one slice's mask, shared by every slice, or every slice's mask
/// back to back.
fn slice_masks<'a>(weight: &Tensor4, kept: &'a [bool]) -> impl Iterator<Item = &'a [bool]> {
    let area = weight.kernel_h() * weight.kernel_w();
    debug_assert!(kept.len() == area || kept.len() == weight.len());
    kept.chunks_exact(area).cycle()
}

/// `weight` with every entry its slice's mask leaves out set to zero.
pub(crate) fn prune(weight: &Tensor4, kept: &[bool]) -> Tensor4 {
    let area = weight.kernel_h() * weight.kernel_w();
    let data = weight
        .as_slice()
        .chunks_exact(area)
        .zip(slice_masks(weight, kept))
        .flat_map(|(slice, mask)| {
            slice
                .iter()
                .zip(mask)
                .map(|(&x, &keep)| if keep { x } else { 0.0 })
        })
        .collect();
    Tensor4::from_vec(
        weight.out_channels(),
        weight.in_channels(),
        weight.kernel_h(),
        weight.kernel_w(),
        data,
    )
    .expect("masking keeps the weight's shape")
}

/// Relative Frobenius error `‖W − P‖ / ‖W‖` of `P = prune(weight, kept)`,
/// in one pass in storage order.
///
/// `‖W‖²` takes every square and `‖W − P‖²` the pruned entries' squares, in
/// the order the im2col matrices' Frobenius norms sum them. A kept entry
/// adds exactly `+0.0` to `‖W − P‖²` there, so for finite weights leaving
/// it out gives the same bits. Both sums start from `+0.0`: an empty `f64`
/// `Iterator::sum` is `-0.0`, whose sign would survive the square root when
/// every entry is kept.
pub(crate) fn relative_error(weight: &Tensor4, kept: &[bool]) -> f64 {
    let area = weight.kernel_h() * weight.kernel_w();
    let mut total = 0.0_f64;
    let mut pruned = 0.0_f64;
    for (slice, mask) in weight
        .as_slice()
        .chunks_exact(area)
        .zip(slice_masks(weight, kept))
    {
        for (&x, &keep) in slice.iter().zip(mask) {
            total += x * x;
            if !keep {
                pruned += x * x;
            }
        }
    }
    let norm = total.sqrt();
    if norm > 0.0 {
        pruned.sqrt() / norm
    } else {
        0.0
    }
}

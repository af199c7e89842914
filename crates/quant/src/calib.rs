//! Per-network calibration context: everything post-training
//! quantization reads of a network that does not depend on the method,
//! computed once, plus a memo of the clip searches it has run.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;

use agequant_check::par_map;
use agequant_nn::{
    accuracy_loss_pct, ConvLayer, ExactExecutor, LinearLayer, Model, NodeId, Op, SyntheticDataset,
};
use agequant_tensor::{argmax, Tensor};

use crate::methods::ClipSearch;
use crate::model::{quantize_layer, QuantizedModel};
use crate::stats::MAX_SAMPLE;
use crate::{BitWidths, LapqRefineConfig, QuantMethod, TensorStats};

/// What quantizing one network needs to know about it, whatever the
/// method and bit widths: the calibration set's FP32 activation
/// statistics (one traced pass) and logits, the weight statistics, and
/// optionally an evaluation split with its FP32 predictions. On top of
/// that it memoizes every clip search it has run, per search and bit
/// width: a weight clip depends only on the weights and the weight
/// bits, an activation clip only on the calibration statistics and the
/// activation bits.
///
/// A context is built once per network and reused across bit widths;
/// [`search_clips`](Self::search_clips) runs the searches a new width
/// needs in parallel, one [`par_map`] item per layer's activation clip
/// or per chunk of a layer's weight channels, and
/// [`quantize`](Self::quantize) assembles a [`QuantizedModel`] from the
/// cached statistics and clips. Every search's arithmetic is the
/// one-shot path's, so a warm context quantizes bit-identically to
/// [`quantize_model_with`](crate::quantize_model_with), which is itself
/// a one-shot use of a context.
///
/// # Example
///
/// ```
/// use std::borrow::Cow;
///
/// use agequant_nn::{NetArch, SyntheticDataset};
/// use agequant_quant::{BitWidths, CalibContext, LapqRefineConfig, QuantMethod};
///
/// let model = NetArch::AlexNet.build(3);
/// let (calib, eval) = SyntheticDataset::generate(20, 1).split_at(4);
/// let mut context = CalibContext::new(Cow::Borrowed(&model), calib).evaluating(eval);
/// let bits = BitWidths::for_compression(2, 2);
/// context.search_clips(&QuantMethod::ALL, bits);
/// let q = context.quantize(QuantMethod::Lapq, bits, &LapqRefineConfig::off());
/// assert!(context.loss_pct(&q) <= 100.0);
/// ```
pub struct CalibContext<'m> {
    model: Cow<'m, Model>,
    calib: SyntheticDataset,
    /// FP32 logits of every calibration image, in order: LAPQ
    /// refinement's reference.
    calib_logits: Vec<Tensor>,
    /// The evaluation split and its FP32 predictions, once given.
    eval: Option<(SyntheticDataset, Vec<usize>)>,
    /// One entry per weighted layer, in graph order.
    layers: Vec<LayerStats>,
    /// Every clip searched so far, per layer: the activation clip, or
    /// one clip per weight channel.
    clips: HashMap<ClipKey, Vec<Vec<f32>>>,
}

/// The method-independent statistics of one weighted layer.
struct LayerStats {
    id: NodeId,
    /// The layer's input over the calibration set.
    act: TensorStats,
    /// The whole weight tensor (per-tensor methods).
    weights: TensorStats,
    /// Each output channel's weights (per-channel methods).
    channels: Vec<TensorStats>,
}

/// Which operand a clip is searched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operand {
    Activations,
    Weights,
}

/// One memo entry's identity: the search, the operand and its width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClipKey {
    search: ClipSearch,
    operand: Operand,
    bits: u8,
}

/// One parallel item: the searches of a run of one layer's populations
/// (its single activation population, or a chunk of weight channels).
struct ClipJob {
    key: ClipKey,
    layer: usize,
    populations: Range<usize>,
}

/// The search cost one clip job aims for, in [`ClipSearch::cost`]
/// units: about one LAPQ search over a full sample, so a layer's
/// activation clip and a chunk of its weight channels weigh the same.
const JOB_COST: usize = MAX_SAMPLE;

impl<'m> CalibContext<'m> {
    /// Calibrates `model` on `calib`: one FP32 pass per calibration
    /// image (in parallel, one [`par_map`] item per image) records each
    /// weighted layer's input statistics and the logits, and each
    /// layer's weight statistics are collected per tensor and per
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty.
    #[must_use]
    pub fn new(model: Cow<'m, Model>, calib: SyntheticDataset) -> Self {
        assert!(!calib.is_empty(), "calibration set must be non-empty");
        let weighted = model.weighted_layers();
        let mut consumers: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (layer, &id) in weighted.iter().enumerate() {
            consumers
                .entry(model.nodes()[id.index()].inputs[0])
                .or_default()
                .push(layer);
        }
        let traces: Vec<(Vec<Vec<f32>>, Tensor)> = par_map(calib.images(), |image| {
            let mut inputs = vec![Vec::new(); weighted.len()];
            let logits = model.run_traced(&ExactExecutor, image, |id, out| {
                for &layer in consumers.get(&id).into_iter().flatten() {
                    inputs[layer] = out.data().to_vec();
                }
            });
            (inputs, logits)
        });
        let indexed: Vec<(usize, NodeId)> = weighted.into_iter().enumerate().collect();
        let layers = par_map(&indexed, |&(layer, id)| {
            let chunks: Vec<&[f32]> = traces
                .iter()
                .map(|(inputs, _)| inputs[layer].as_slice())
                .collect();
            let (weights, _) = weighted_op(&model, id);
            let fan = weights.len() / weights.shape()[0];
            LayerStats {
                id,
                act: TensorStats::collect_many(&chunks),
                weights: TensorStats::collect(weights.data()),
                channels: weights
                    .data()
                    .chunks(fan)
                    .map(TensorStats::collect)
                    .collect(),
            }
        });
        let calib_logits = traces.into_iter().map(|(_, logits)| logits).collect();
        CalibContext {
            model,
            calib,
            calib_logits,
            eval: None,
            layers,
            clips: HashMap::new(),
        }
    }

    /// Adds an evaluation split: its FP32 predictions are computed once
    /// (one [`par_map`] item per image) as the reference every
    /// [`loss_pct`](Self::loss_pct) compares against.
    #[must_use]
    pub fn evaluating(mut self, eval: SyntheticDataset) -> Self {
        let reference = par_map(eval.images(), |image| {
            argmax(&self.model.run(&ExactExecutor, image))
        });
        self.eval = Some((eval, reference));
        self
    }

    /// The calibrated network.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Runs every clip search `methods` need at `bits` that the memo
    /// lacks, as one [`par_map`] over per-layer jobs, and memoizes the
    /// results. Each search is a pure function of its population and
    /// width, so neither the job split nor the worker count changes a
    /// clip.
    pub fn search_clips(&mut self, methods: &[QuantMethod], bits: BitWidths) {
        let mut keys = Vec::new();
        for search in methods.iter().filter_map(|m| m.clip_search()) {
            for (operand, width) in [
                (Operand::Activations, bits.activations),
                (Operand::Weights, bits.weights),
            ] {
                let key = ClipKey {
                    search,
                    operand,
                    bits: width,
                };
                if !self.clips.contains_key(&key) && !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        let jobs: Vec<ClipJob> = keys.into_iter().flat_map(|key| self.jobs(key)).collect();
        let found = par_map(&jobs, |job| self.search(job));
        let layers = self.layers.len();
        for (job, clips) in jobs.into_iter().zip(found) {
            self.clips
                .entry(job.key)
                .or_insert_with(|| vec![Vec::new(); layers])[job.layer]
                .extend(clips);
        }
    }

    /// Quantizes the network with `method` at `bits` from the cached
    /// statistics and clips (a clip the memo lacks is searched here,
    /// inline, and not stored), then runs LAPQ's refinement when
    /// `method` is LAPQ and `refine` asks for it.
    #[must_use]
    pub fn quantize(
        &self,
        method: QuantMethod,
        bits: BitWidths,
        refine: &LapqRefineConfig,
    ) -> QuantizedModel {
        let searched = |operand, width, layer| {
            method.clip_search().map(|search| {
                let key = ClipKey {
                    search,
                    operand,
                    bits: width,
                };
                self.clips(key, layer)
            })
        };
        let mut layers = BTreeMap::new();
        for (index, layer) in self.layers.iter().enumerate() {
            let act_clip = searched(Operand::Activations, bits.activations, index).map(|c| c[0]);
            let act = method.activation_params(&layer.act, bits.activations, act_clip);
            let w_params = match searched(Operand::Weights, bits.weights, index) {
                Some(clips) => layer
                    .channels
                    .iter()
                    .zip(clips.iter())
                    .map(|(stats, &clip)| method.weight_params(stats, bits.weights, Some(clip)))
                    .collect(),
                None => vec![method.weight_params(&layer.weights, bits.weights, None)],
            };
            let (weights, bias) = weighted_op(&self.model, layer.id);
            layers.insert(
                layer.id,
                quantize_layer(method, bits, act, layer.act.mean, weights, bias, w_params),
            );
        }
        let mut quantized = QuantizedModel::new(method, bits, layers);
        if method == QuantMethod::Lapq && refine.passes > 0 && refine.images > 0 {
            let n = refine.images.min(self.calib.len());
            quantized.refine_lapq(
                &self.model,
                &self.calib.images()[..n],
                &self.calib_logits[..n],
                refine,
            );
        }
        quantized
    }

    /// Accuracy loss of `quantized` on the evaluation split against
    /// the FP32 predictions, percent.
    ///
    /// # Panics
    ///
    /// Panics if the context was built without
    /// [`evaluating`](Self::evaluating).
    #[must_use]
    pub fn loss_pct(&self, quantized: &QuantizedModel) -> f64 {
        let (eval, reference) = self
            .eval
            .as_ref()
            .expect("an evaluation split is given before losses are asked");
        accuracy_loss_pct(reference, &self.model.predict_all(quantized, eval.images()))
    }

    /// The populations `operand` searches at `layer`: its activation
    /// population, or one per weight channel.
    fn populations(&self, operand: Operand, layer: usize) -> &[TensorStats] {
        let stats = &self.layers[layer];
        match operand {
            Operand::Activations => std::slice::from_ref(&stats.act),
            Operand::Weights => &stats.channels,
        }
    }

    /// Every layer's searches for `key`, split into jobs of about
    /// [`JOB_COST`] each, in layer and channel order.
    fn jobs(&self, key: ClipKey) -> Vec<ClipJob> {
        let mut jobs = Vec::new();
        for layer in 0..self.layers.len() {
            let populations = self.populations(key.operand, layer);
            let (mut start, mut cost) = (0, 0);
            for (i, stats) in populations.iter().enumerate() {
                cost += key.search.cost(stats);
                if cost >= JOB_COST || i + 1 == populations.len() {
                    jobs.push(ClipJob {
                        key,
                        layer,
                        populations: start..i + 1,
                    });
                    (start, cost) = (i + 1, 0);
                }
            }
        }
        jobs
    }

    /// Runs one job's searches, in population order.
    fn search(&self, job: &ClipJob) -> Vec<f32> {
        let ClipKey {
            search,
            operand,
            bits,
        } = job.key;
        self.populations(operand, job.layer)[job.populations.clone()]
            .iter()
            .map(|stats| {
                let one_sided = operand == Operand::Activations && stats.is_non_negative();
                search.clip(stats, bits, one_sided)
            })
            .collect()
    }

    /// `key`'s clips at `layer`: from the memo, or searched now.
    fn clips(&self, key: ClipKey, layer: usize) -> Cow<'_, [f32]> {
        match self.clips.get(&key) {
            Some(per_layer) => Cow::Borrowed(&per_layer[layer]),
            None => Cow::Owned(self.search(&ClipJob {
                key,
                layer,
                populations: 0..self.populations(key.operand, layer).len(),
            })),
        }
    }
}

impl fmt::Debug for CalibContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalibContext")
            .field("model", &self.model.name())
            .field("calib_images", &self.calib.len())
            .field(
                "eval_images",
                &self.eval.as_ref().map(|(eval, _)| eval.len()),
            )
            .field("layers", &self.layers.len())
            .field("clip_entries", &self.clips.len())
            .finish()
    }
}

/// The weights and bias of weighted layer `id`.
fn weighted_op(model: &Model, id: NodeId) -> (&Tensor, &[f32]) {
    match &model.nodes()[id.index()].op {
        Op::Conv(ConvLayer { weights, bias, .. }) | Op::Linear(LinearLayer { weights, bias }) => {
            (weights, bias)
        }
        _ => unreachable!("weighted_layers returns conv/linear only"),
    }
}

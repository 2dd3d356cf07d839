//! Network graph description: a Darknet-style flat layer list with
//! relative-index shortcut and route references.

use lv_tensor::ConvShape;

/// Activation applied after a convolution or fully-connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation (linear).
    Linear,
    /// `max(0, x)`.
    Relu,
    /// `x < 0 ? 0.1 x : x` (Darknet's default for YOLOv3).
    Leaky,
}

/// One layer of the network.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// Convolution (+bias +activation).
    Conv {
        /// Layer geometry.
        shape: ConvShape,
        /// Post-activation.
        activation: Activation,
    },
    /// Max pooling with square window.
    MaxPool {
        /// Window size.
        size: usize,
        /// Stride.
        stride: usize,
    },
    /// Residual add with the output of a previous layer (relative index).
    Shortcut {
        /// Offset relative to this layer (e.g. -3).
        from: isize,
    },
    /// Channel concatenation of previous layers (relative or absolute
    /// indices, Darknet-style: negative = relative).
    Route {
        /// Source layers.
        layers: Vec<isize>,
    },
    /// Nearest-neighbour upsampling.
    Upsample {
        /// Scale factor.
        stride: usize,
    },
    /// Global average pooling over each channel.
    AvgPool,
    /// Fully-connected layer (+bias +activation).
    FullyConnected {
        /// Input features.
        inputs: usize,
        /// Output features.
        outputs: usize,
        /// Post-activation.
        activation: Activation,
    },
    /// Softmax over the final vector.
    Softmax,
    /// YOLO detection head (bookkeeping only; negligible compute).
    Yolo,
}

/// A layer plus its computed output dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// What the layer does.
    pub kind: LayerKind,
    /// Output channels.
    pub out_c: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Layer {
    /// Output element count.
    pub fn out_len(&self) -> usize {
        self.out_c * self.out_h * self.out_w
    }
}

/// A network: input dimensions plus an ordered layer list.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Human-readable name ("yolov3", "vgg16", ...).
    pub name: String,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

/// Builder that tracks the running output shape like Darknet's parser.
pub struct ModelBuilder {
    name: String,
    in_c: usize,
    in_h: usize,
    in_w: usize,
    layers: Vec<Layer>,
}

impl ModelBuilder {
    /// Start a network with the given input dimensions.
    pub fn new(name: &str, in_c: usize, in_h: usize, in_w: usize) -> Self {
        Self { name: name.to_string(), in_c, in_h, in_w, layers: Vec::new() }
    }

    fn cur(&self) -> (usize, usize, usize) {
        match self.layers.last() {
            Some(l) => (l.out_c, l.out_h, l.out_w),
            None => (self.in_c, self.in_h, self.in_w),
        }
    }

    /// Append a square convolution with "same" padding.
    pub fn conv(mut self, oc: usize, k: usize, stride: usize, act: Activation) -> Self {
        let (c, h, w) = self.cur();
        assert_eq!(h, w, "builder only supports square activations");
        let shape = ConvShape::same_pad(c, oc, h, k, stride);
        self.layers.push(Layer {
            kind: LayerKind::Conv { shape, activation: act },
            out_c: oc,
            out_h: shape.oh(),
            out_w: shape.ow(),
        });
        self
    }

    /// Append a max-pool layer.
    pub fn maxpool(mut self, size: usize, stride: usize) -> Self {
        let (c, h, w) = self.cur();
        self.layers.push(Layer {
            kind: LayerKind::MaxPool { size, stride },
            out_c: c,
            out_h: h / stride,
            out_w: w / stride,
        });
        self
    }

    /// Append a shortcut (residual add) from a relative layer index.
    pub fn shortcut(mut self, from: isize) -> Self {
        let (c, h, w) = self.cur();
        let idx = self.resolve(from);
        let src = &self.layers[idx];
        assert_eq!((src.out_c, src.out_h, src.out_w), (c, h, w), "shortcut shape mismatch");
        self.layers.push(Layer {
            kind: LayerKind::Shortcut { from },
            out_c: c,
            out_h: h,
            out_w: w,
        });
        self
    }

    /// Append a route (concatenation) layer.
    pub fn route(mut self, froms: &[isize]) -> Self {
        let idxs: Vec<usize> = froms.iter().map(|&f| self.resolve(f)).collect();
        let (h, w) = (self.layers[idxs[0]].out_h, self.layers[idxs[0]].out_w);
        let c: usize = idxs
            .iter()
            .map(|&i| {
                assert_eq!((self.layers[i].out_h, self.layers[i].out_w), (h, w));
                self.layers[i].out_c
            })
            .sum();
        self.layers.push(Layer {
            kind: LayerKind::Route { layers: froms.to_vec() },
            out_c: c,
            out_h: h,
            out_w: w,
        });
        self
    }

    /// Append a nearest-neighbour upsample layer.
    pub fn upsample(mut self, stride: usize) -> Self {
        let (c, h, w) = self.cur();
        self.layers.push(Layer {
            kind: LayerKind::Upsample { stride },
            out_c: c,
            out_h: h * stride,
            out_w: w * stride,
        });
        self
    }

    /// Append a global average pool.
    pub fn avgpool(mut self) -> Self {
        let (c, _, _) = self.cur();
        self.layers.push(Layer { kind: LayerKind::AvgPool, out_c: c, out_h: 1, out_w: 1 });
        self
    }

    /// Append a fully-connected layer.
    pub fn fc(mut self, outputs: usize, act: Activation) -> Self {
        let (c, h, w) = self.cur();
        let inputs = c * h * w;
        self.layers.push(Layer {
            kind: LayerKind::FullyConnected { inputs, outputs, activation: act },
            out_c: outputs,
            out_h: 1,
            out_w: 1,
        });
        self
    }

    /// Append a softmax layer.
    pub fn softmax(mut self) -> Self {
        let (c, h, w) = self.cur();
        self.layers.push(Layer { kind: LayerKind::Softmax, out_c: c, out_h: h, out_w: w });
        self
    }

    /// Append a YOLO detection head.
    pub fn yolo(mut self) -> Self {
        let (c, h, w) = self.cur();
        self.layers.push(Layer { kind: LayerKind::Yolo, out_c: c, out_h: h, out_w: w });
        self
    }

    fn resolve(&self, from: isize) -> usize {
        if from < 0 {
            (self.layers.len() as isize + from) as usize
        } else {
            from as usize
        }
    }

    /// Finish the network.
    pub fn build(self) -> Model {
        Model {
            name: self.name,
            in_c: self.in_c,
            in_h: self.in_h,
            in_w: self.in_w,
            layers: self.layers,
        }
    }
}

impl Model {
    /// The conv layers, in order, with their ordinal among conv layers.
    pub fn conv_shapes(&self) -> Vec<ConvShape> {
        self.layers
            .iter()
            .filter_map(|l| match &l.kind {
                LayerKind::Conv { shape, .. } => Some(*shape),
                _ => None,
            })
            .collect()
    }

    /// Number of convolutional layers.
    pub fn conv_count(&self) -> usize {
        self.conv_shapes().len()
    }

    /// Total direct-convolution MACs over all conv layers.
    pub fn total_conv_macs(&self) -> u64 {
        self.conv_shapes().iter().map(|s| s.macs()).sum()
    }

    /// Resolve a Darknet-style layer reference (negative = relative to
    /// `layer`, non-negative = absolute index).
    pub fn resolve(&self, layer: usize, from: isize) -> usize {
        if from < 0 {
            (layer as isize + from) as usize
        } else {
            from as usize
        }
    }

    /// Product of all conv/pool strides: the factor the input must be a
    /// multiple of for every spatial dimension to divide evenly.
    pub fn downsample_factor(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match &l.kind {
                LayerKind::Conv { shape, .. } => shape.stride,
                LayerKind::MaxPool { stride, .. } => *stride,
                _ => 1,
            })
            .product::<usize>()
            .max(1)
    }

    /// Structural clone with input H/W scaled by `scale` and snapped to a
    /// multiple of [`Model::downsample_factor`] (so every stride divides
    /// evenly). Channel widths, kernels and the layer graph are unchanged;
    /// `scaled(1.0)` on a well-formed model is the identity. Used by the
    /// harness to run full networks at reduced cost (e.g. `--scale 0.1`).
    pub fn scaled(&self, scale: f64) -> Model {
        assert!(scale > 0.0, "scale must be positive");
        let snap = self.downsample_factor();
        let units = (self.in_h as f64 * scale / snap as f64).round().max(1.0) as usize;
        let side = units * snap;
        let mut b = ModelBuilder::new(&self.name, self.in_c, side, side);
        for l in &self.layers {
            b = match &l.kind {
                LayerKind::Conv { shape, activation } => {
                    b.conv(shape.oc, shape.kh, shape.stride, *activation)
                }
                LayerKind::MaxPool { size, stride } => b.maxpool(*size, *stride),
                LayerKind::Shortcut { from } => b.shortcut(*from),
                LayerKind::Route { layers } => b.route(layers),
                LayerKind::Upsample { stride } => b.upsample(*stride),
                LayerKind::AvgPool => b.avgpool(),
                LayerKind::FullyConnected { outputs, activation, .. } => {
                    b.fc(*outputs, *activation)
                }
                LayerKind::Softmax => b.softmax(),
                LayerKind::Yolo => b.yolo(),
            };
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_shapes() {
        let m = ModelBuilder::new("t", 3, 32, 32)
            .conv(16, 3, 1, Activation::Leaky)
            .conv(32, 3, 2, Activation::Leaky)
            .conv(16, 1, 1, Activation::Leaky)
            .conv(32, 3, 1, Activation::Leaky)
            .shortcut(-3)
            .build();
        assert_eq!(m.layers.len(), 5);
        assert_eq!(m.layers[1].out_h, 16);
        assert_eq!(m.layers[4].out_c, 32);
        assert_eq!(m.conv_count(), 4);
    }

    #[test]
    fn route_concatenates_channels() {
        let m = ModelBuilder::new("t", 3, 16, 16)
            .conv(8, 3, 1, Activation::Relu)
            .conv(4, 1, 1, Activation::Relu)
            .route(&[-1, -2])
            .build();
        assert_eq!(m.layers[2].out_c, 12);
    }

    #[test]
    fn scaled_preserves_structure_and_snaps_dims() {
        let m = ModelBuilder::new("t", 3, 64, 64)
            .conv(16, 3, 1, Activation::Leaky)
            .conv(32, 3, 2, Activation::Leaky)
            .maxpool(2, 2)
            .conv(16, 1, 1, Activation::Leaky)
            .fc(10, Activation::Linear)
            .build();
        assert_eq!(m.downsample_factor(), 4);
        assert_eq!(m.scaled(1.0), m);
        let small = m.scaled(0.25);
        assert_eq!(small.in_h % 4, 0);
        assert_eq!(small.layers.len(), m.layers.len());
        assert_eq!(small.conv_count(), m.conv_count());
        assert!(small.total_conv_macs() < m.total_conv_macs());
        // FC input dims follow the scaled shape.
        let LayerKind::FullyConnected { inputs, .. } = &small.layers[4].kind else {
            panic!("layer 4 should be FC");
        };
        assert_eq!(*inputs, 16 * (small.in_h / 4) * (small.in_w / 4));
    }

    #[test]
    #[should_panic(expected = "shortcut shape mismatch")]
    fn shortcut_must_match() {
        let _ = ModelBuilder::new("t", 3, 16, 16)
            .conv(8, 3, 1, Activation::Relu)
            .conv(4, 3, 2, Activation::Relu)
            .shortcut(-2);
    }
}

//! Checkpoint (de)serialization for the model types, built on
//! `desh-util::codec`. Deployments train offline (phases 1-2) and run
//! inference online (phase 3), so models must round-trip through bytes.

use crate::dense::Dense;
use crate::embedding::Embedding;
use crate::lstm::LstmLayer;
use crate::mat::Mat;
use crate::models::{TokenLstm, VectorLstm};
use crate::param::Param;
use crate::stacked::StackedLstm;
use bytes::Bytes;
use desh_util::codec::{CodecError, Decoder, Encoder};

const MAGIC: [u8; 4] = *b"DSHM";
const VERSION: u32 = 1;

fn put_mat(e: &mut Encoder, m: &Mat) {
    e.put_u64(m.rows() as u64);
    e.put_u64(m.cols() as u64);
    e.put_f32_slice(m.data());
}

fn get_mat(d: &mut Decoder) -> Result<Mat, CodecError> {
    let rows = d.u64()?;
    let cols = d.u64()?;
    let data = d.f32_vec()?;
    if rows.checked_mul(cols) != Some(data.len() as u64) {
        return Err(CodecError::LengthOverflow(data.len() as u64));
    }
    Ok(Mat::from_vec(rows as usize, cols as usize, data))
}

/// Reject a decoded tensor whose shape is not `rows × cols`.
fn expect_shape(p: &Param, rows: usize, cols: usize) -> Result<(), CodecError> {
    if p.w.shape() == (rows, cols) {
        return Ok(());
    }
    Err(CodecError::BadShape(format!(
        "{} is {}x{}, expected {rows}x{cols}",
        p.name,
        p.w.rows(),
        p.w.cols()
    )))
}

fn put_param(e: &mut Encoder, p: &Param) {
    e.put_str(&p.name);
    put_mat(e, &p.w);
}

fn get_param(d: &mut Decoder) -> Result<Param, CodecError> {
    let name = d.string()?;
    let w = get_mat(d)?;
    let g = Mat::zeros(w.rows(), w.cols());
    Ok(Param { w, g, name })
}

fn put_dense(e: &mut Encoder, layer: &Dense) {
    put_param(e, &layer.w);
    put_param(e, &layer.b);
}

fn get_dense(d: &mut Decoder) -> Result<Dense, CodecError> {
    Ok(Dense {
        w: get_param(d)?,
        b: get_param(d)?,
    })
}

fn put_lstm_layer(e: &mut Encoder, layer: &LstmLayer) {
    e.put_u64(layer.input_dim() as u64);
    e.put_u64(layer.hidden_dim() as u64);
    put_param(e, &layer.wx);
    put_param(e, &layer.wh);
    put_param(e, &layer.b);
}

fn get_lstm_layer(d: &mut Decoder) -> Result<LstmLayer, CodecError> {
    let input = d.u64()? as usize;
    let hidden = d.u64()? as usize;
    let wx = get_param(d)?;
    let wh = get_param(d)?;
    let b = get_param(d)?;
    let gates = hidden
        .checked_mul(4)
        .filter(|_| input > 0 && hidden > 0)
        .ok_or_else(|| CodecError::BadShape(format!("lstm dims {input}x{hidden}")))?;
    expect_shape(&wx, input, gates)?;
    expect_shape(&wh, hidden, gates)?;
    expect_shape(&b, 1, gates)?;
    // Rebuild through the constructor to restore private dims (the shapes
    // above bound its allocation by the bytes read), then swap in the
    // stored weights.
    let mut rng = desh_util::Xoshiro256pp::seed_from_u64(0);
    let mut layer = LstmLayer::new(input, hidden, "loaded", &mut rng);
    layer.wx = wx;
    layer.wh = wh;
    layer.b = b;
    Ok(layer)
}

fn put_stacked(e: &mut Encoder, net: &StackedLstm) {
    e.put_u64(net.layers.len() as u64);
    for l in &net.layers {
        put_lstm_layer(e, l);
    }
    put_dense(e, &net.head);
}

/// A stacked net whose layers chain: one or more layers of one hidden
/// width, each fed by the one below, under a head reading that width.
fn get_stacked(d: &mut Decoder) -> Result<StackedLstm, CodecError> {
    // Each layer starts with its two u64 dims.
    let n = d.count(16)?;
    if n == 0 {
        return Err(CodecError::BadShape("stacked net without layers".into()));
    }
    let mut layers: Vec<LstmLayer> = Vec::with_capacity(n);
    for _ in 0..n {
        let layer = get_lstm_layer(d)?;
        if let Some(below) = layers.last() {
            let h = below.hidden_dim();
            if (layer.input_dim(), layer.hidden_dim()) != (h, h) {
                return Err(CodecError::BadShape(format!(
                    "layer {} is {}x{} over hidden width {h}",
                    layers.len(),
                    layer.input_dim(),
                    layer.hidden_dim()
                )));
            }
        }
        layers.push(layer);
    }
    let head = get_dense(d)?;
    let hidden = layers[0].hidden_dim();
    let out = head.output_dim();
    expect_shape(&head.w, hidden, out)?;
    expect_shape(&head.b, 1, out)?;
    Ok(StackedLstm { layers, head })
}

impl TokenLstm {
    /// Serialize weights to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut e = Encoder::with_header(MAGIC, VERSION);
        e.put_u8(1); // model kind tag
        put_mat(&mut e, &self.embed.table.w);
        put_stacked(&mut e, &self.net);
        e.finish()
    }

    /// Restore from bytes produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(MAGIC, VERSION)?;
        let kind = d.u8()?;
        if kind != 1 {
            return Err(CodecError::BadMagic {
                expected: [1, 0, 0, 0],
                found: [kind, 0, 0, 0],
            });
        }
        let table = get_mat(&mut d)?;
        let net = get_stacked(&mut d)?;
        Ok(Self {
            embed: Embedding::from_table(table),
            net,
        })
    }
}

impl VectorLstm {
    /// Serialize weights to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut e = Encoder::with_header(MAGIC, VERSION);
        e.put_u8(2);
        e.put_u64(self.dim() as u64);
        put_stacked(&mut e, &self.net);
        e.finish()
    }

    /// Restore from bytes produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(MAGIC, VERSION)?;
        let kind = d.u8()?;
        if kind != 2 {
            return Err(CodecError::BadMagic {
                expected: [2, 0, 0, 0],
                found: [kind, 0, 0, 0],
            });
        }
        let dim = d.u64()? as usize;
        let net = get_stacked(&mut d)?;
        if (net.input_dim(), net.output_dim()) != (dim, dim) {
            return Err(CodecError::BadShape(format!(
                "net {}->{} for {dim}-wide samples",
                net.input_dim(),
                net.output_dim()
            )));
        }
        let mut rng = desh_util::Xoshiro256pp::seed_from_u64(0);
        let mut model = VectorLstm::new(dim, net.hidden_dim(), net.depth(), &mut rng);
        model.net = net;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_util::Xoshiro256pp;

    #[test]
    fn token_lstm_round_trip_preserves_outputs() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let m = TokenLstm::new(9, 6, 10, 2, &mut rng);
        let bytes = m.to_bytes();
        let m2 = TokenLstm::from_bytes(bytes).unwrap();
        let ctx = [1u32, 4, 7, 2];
        assert_eq!(m.predict_probs(&ctx), m2.predict_probs(&ctx));
    }

    #[test]
    fn vector_lstm_round_trip_preserves_outputs() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let m = VectorLstm::new(2, 8, 2, &mut rng);
        let bytes = m.to_bytes();
        let m2 = VectorLstm::from_bytes(bytes).unwrap();
        let w: Vec<&[f32]> = vec![&[0.2, 0.8], &[0.1, 0.9]];
        assert_eq!(m.predict_next(&w, 5), m2.predict_next(&w, 5));
    }

    #[test]
    fn wrong_kind_tag_rejected() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let token = TokenLstm::new(4, 3, 4, 1, &mut rng);
        let bytes = token.to_bytes();
        assert!(VectorLstm::from_bytes(bytes).is_err());
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let m = VectorLstm::new(2, 4, 1, &mut rng);
        let bytes = m.to_bytes();
        let cut = bytes.slice(0..bytes.len() / 2);
        assert!(VectorLstm::from_bytes(cut).is_err());
    }
}

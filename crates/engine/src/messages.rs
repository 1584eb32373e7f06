//! Control-port message payloads of the PCA application.

use spca_core::EigenSystem;

/// Control tuple kind: a synchronization command from the controller
/// telling an engine to share its state (§III-B: "the PCA component shares
/// the current eigensystem state with a set of other instances defined in
/// the control message").
pub const KIND_SYNC_COMMAND: u32 = 1;

/// Control tuple kind: an eigensystem arriving from a peer engine.
pub const KIND_PEER_STATE: u32 = 2;

/// Control tuple kind: a monitoring snapshot of an engine's eigensystem.
pub const KIND_SNAPSHOT: u32 = 3;

/// Control tuple kind: a lightweight liveness heartbeat from an engine.
/// The sync controller uses these (and snapshots) to decide
/// which engines are alive when generating commands.
pub const KIND_HEARTBEAT: u32 = 4;

/// Payload of a [`KIND_HEARTBEAT`]: which engine is alive and how far
/// along it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Index of the engine sending the heartbeat.
    pub engine: u32,
    /// Observations the sender had folded in when beating.
    pub n_obs: u64,
}

/// Payload of a [`KIND_SYNC_COMMAND`]: which of the engine's peer-state
/// output ports to share on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncCommand {
    /// Peer-port indices the engine should send its eigensystem to.
    pub share_ports: Vec<usize>,
}

/// Payload of a [`KIND_PEER_STATE`] or [`KIND_SNAPSHOT`]: an eigensystem
/// with provenance.
#[derive(Debug, Clone)]
pub struct PeerState {
    /// Index of the engine that produced the state.
    pub engine: u32,
    /// The shared eigensystem (truncated to `p + q` tracked components).
    pub eigensystem: EigenSystem,
    /// Observations the sender had folded in when sharing.
    pub n_obs: u64,
    /// State messages this engine has sent so far (diagnostics).
    pub shares_sent: u64,
    /// Peer states this engine has merged so far (diagnostics).
    pub merges_applied: u64,
}

/// Registers the byte codecs that let the application's control payloads
/// cross a process boundary (see `spca_streams::codec`). Idempotent; every
/// distributed entry point calls this before starting its engine.
///
/// The [`PeerState`] encoding reuses [`crate::persist::encode_snapshot`]
/// for the eigensystem, whose `{:e}` float formatting round-trips every
/// f64 bit-exactly — the property the distributed bit-identity gate rests
/// on.
pub fn register_wire_codecs() {
    use crate::persist::{decode_snapshot, encode_snapshot};
    use std::any::Any;
    use std::sync::Arc;

    spca_streams::register_control_codec(
        KIND_HEARTBEAT,
        |payload, out| {
            let Some(hb) = payload.downcast_ref::<Heartbeat>() else {
                return false;
            };
            out.extend_from_slice(format!("{} {}\n", hb.engine, hb.n_obs).as_bytes());
            true
        },
        |bytes| {
            let text = std::str::from_utf8(bytes).ok()?;
            let mut it = text.trim_end().split(' ');
            let engine = it.next()?.parse().ok()?;
            let n_obs = it.next()?.parse().ok()?;
            if it.next().is_some() {
                return None;
            }
            Some(Arc::new(Heartbeat { engine, n_obs }) as Arc<dyn Any + Send + Sync>)
        },
    );

    spca_streams::register_control_codec(
        KIND_SYNC_COMMAND,
        |payload, out| {
            let Some(cmd) = payload.downcast_ref::<SyncCommand>() else {
                return false;
            };
            let ports: Vec<String> = cmd.share_ports.iter().map(|p| p.to_string()).collect();
            out.extend_from_slice(format!("{}\n", ports.join(" ")).as_bytes());
            true
        },
        |bytes| {
            let text = std::str::from_utf8(bytes).ok()?;
            let share_ports = text
                .trim_end()
                .split(' ')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().ok())
                .collect::<Option<Vec<usize>>>()?;
            Some(Arc::new(SyncCommand { share_ports }) as Arc<dyn Any + Send + Sync>)
        },
    );

    fn enc_peer_state(payload: &(dyn Any + Send + Sync), out: &mut Vec<u8>) -> bool {
        let Some(st) = payload.downcast_ref::<PeerState>() else {
            return false;
        };
        out.extend_from_slice(
            format!(
                "{} {} {} {}\n",
                st.engine, st.n_obs, st.shares_sent, st.merges_applied
            )
            .as_bytes(),
        );
        out.extend_from_slice(&encode_snapshot(&st.eigensystem));
        true
    }
    fn dec_peer_state(bytes: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
        let nl = bytes.iter().position(|&b| b == b'\n')?;
        let head = std::str::from_utf8(&bytes[..nl]).ok()?;
        let mut it = head.split(' ');
        let engine = it.next()?.parse().ok()?;
        let n_obs = it.next()?.parse().ok()?;
        let shares_sent = it.next()?.parse().ok()?;
        let merges_applied = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        let eigensystem = decode_snapshot(&bytes[nl + 1..]).ok()?;
        Some(Arc::new(PeerState {
            engine,
            eigensystem,
            n_obs,
            shares_sent,
            merges_applied,
        }) as Arc<dyn Any + Send + Sync>)
    }
    // Peer shares and monitoring snapshots carry the same payload type.
    spca_streams::register_control_codec(KIND_PEER_STATE, enc_peer_state, dec_peer_state);
    spca_streams::register_control_codec(KIND_SNAPSHOT, enc_peer_state, dec_peer_state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn payloads_round_trip_through_control_tuples() {
        let cmd = SyncCommand {
            share_ports: vec![0, 2],
        };
        let t = spca_streams::ControlTuple::new(KIND_SYNC_COMMAND, 7, Arc::new(cmd.clone()));
        assert_eq!(t.payload_as::<SyncCommand>().unwrap(), &cmd);

        let st = PeerState {
            engine: 3,
            eigensystem: EigenSystem::zeros(4, 2),
            n_obs: 10,
            shares_sent: 1,
            merges_applied: 2,
        };
        let t2 = spca_streams::ControlTuple::new(KIND_PEER_STATE, 3, Arc::new(st));
        let back = t2.payload_as::<PeerState>().unwrap();
        assert_eq!(back.engine, 3);
        assert_eq!(back.eigensystem.dim(), 4);

        let hb = Heartbeat {
            engine: 1,
            n_obs: 42,
        };
        let t3 = spca_streams::ControlTuple::new(KIND_HEARTBEAT, 1, Arc::new(hb));
        assert_eq!(t3.payload_as::<Heartbeat>().unwrap(), &hb);
    }

    #[test]
    fn wire_codecs_round_trip_payloads_bit_exactly() {
        use spca_streams::{decode_frame, encode_frame, Frame, Tuple};

        register_wire_codecs();

        let mut eig = spca_core::EigenSystem::zeros(3, 2);
        eig.basis.col_mut(0)[0] = 1.0;
        eig.basis.col_mut(1)[1] = 1.0;
        eig.values[0] = 1.0 / 3.0;
        eig.values[1] = f64::MIN_POSITIVE;
        eig.sigma2 = 0.1 + 0.2; // not representable exactly; must survive
        eig.n_obs = 17;
        let st = PeerState {
            engine: 2,
            eigensystem: eig,
            n_obs: 17,
            shares_sent: 4,
            merges_applied: 9,
        };
        let tuples = vec![
            Tuple::Control(spca_streams::ControlTuple::new(
                KIND_PEER_STATE,
                2,
                Arc::new(st.clone()),
            )),
            Tuple::Control(spca_streams::ControlTuple::new(
                KIND_SYNC_COMMAND,
                0,
                Arc::new(SyncCommand {
                    share_ports: vec![1, 3],
                }),
            )),
            Tuple::Control(spca_streams::ControlTuple::new(
                KIND_HEARTBEAT,
                1,
                Arc::new(Heartbeat {
                    engine: 1,
                    n_obs: 5,
                }),
            )),
        ];

        let mut bytes = Vec::new();
        encode_frame(&tuples, &mut bytes).unwrap();
        let mut frame = Frame::default();
        decode_frame(&bytes, &mut frame).unwrap();
        let back = frame.tuples();
        assert_eq!(back.len(), 3);

        let Tuple::Control(c0) = &back[0] else {
            panic!("expected control tuple");
        };
        let got = c0.payload_as::<PeerState>().unwrap();
        assert_eq!(got.engine, st.engine);
        assert_eq!(got.shares_sent, st.shares_sent);
        assert_eq!(got.merges_applied, st.merges_applied);
        assert_eq!(
            got.eigensystem.sigma2.to_bits(),
            st.eigensystem.sigma2.to_bits()
        );
        assert_eq!(
            got.eigensystem.values[1].to_bits(),
            st.eigensystem.values[1].to_bits()
        );

        let Tuple::Control(c1) = &back[1] else {
            panic!("expected control tuple");
        };
        assert_eq!(
            c1.payload_as::<SyncCommand>().unwrap().share_ports,
            vec![1, 3]
        );
        let Tuple::Control(c2) = &back[2] else {
            panic!("expected control tuple");
        };
        assert_eq!(
            c2.payload_as::<Heartbeat>().unwrap(),
            &Heartbeat {
                engine: 1,
                n_obs: 5
            }
        );
    }
}

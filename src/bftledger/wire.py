"""Central wire registry: every protocol value gets its class tag here.

Importing this module freezes the tag assignment; the order below is part of
the wire format and must not be reshuffled.
"""

from __future__ import annotations

from . import accounts, algebra, assets, auction, committee, messages, swap, tpke, trace
from .serialize import register_wire

WIRE_TYPES = (
    # identifiers and committee objects
    accounts.AccountId,
    committee.Vote,
    committee.Certificate,
    committee.Authenticated,
    # account operations and requests
    accounts.OpenAccount,
    accounts.Transfer,
    accounts.ChangeKey,
    accounts.StartConsensusInstance,
    accounts.LockInto,
    accounts.ApplyUpdate,
    accounts.Request,
    # algebra updates
    algebra.ScalarUpdate,
    algebra.ItemUpdate,
    algebra.SideUpdate,
    # cross-shard effects
    accounts.InitAccountEffect,
    accounts.CreditEffect,
    accounts.UnlockEffect,
    accounts.SetOwnerEffect,
    swap.InitInstanceEffect,
    auction.InitAuctionEffect,
    accounts.EscrowDebitEffect,
    # swap consensus
    swap.Proposal,
    swap.PreCommitStatement,
    swap.CommitStatement,
    # assets
    assets.AssetBinding,
    assets.Spend,
    assets.AssetCertifyRequest,
    assets.TransmuteRequest,
    assets.TransmuteCore,
    # auctions
    auction.CreateAuction,
    auction.SubmitBidRequest,
    auction.BidStatement,
    auction.EndOfBiddingRequest,
    auction.EndOfBiddingStatement,
    auction.BidOpening,
    auction.EndOfAuctionRequest,
    auction.EndOfAuctionStatement,
    # tpke values riding inside statements
    tpke.Ciphertext,
    tpke.DecryptionShare,
    # network messages
    messages.HandleRequestMsg,
    messages.ConfirmMsg,
    messages.QueryAccountMsg,
    messages.ProposalMsg,
    messages.PreCommitMsg,
    messages.CommitMsg,
    messages.QueryInstanceMsg,
    messages.CertifyAssetMsg,
    messages.TransmuteMsg,
    messages.SubmitBidMsg,
    messages.EndOfBiddingMsg,
    messages.SharesQueryMsg,
    messages.EndOfAuctionMsg,
    messages.SettleAuctionMsg,
    messages.VoteReply,
    messages.TransmuteReply,
    messages.AckReply,
    messages.ErrorReply,
    messages.AccountInfoReply,
    messages.InstanceViewReply,
    messages.SharesReply,
    # trace records
    trace.TraceEvent,
)

for _cls in WIRE_TYPES:
    register_wire(_cls)
